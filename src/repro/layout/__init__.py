"""Layout: geometry, GDSII codec, chip assembly, DRC."""

from .chip import build_chip_gds
from .defio import DefComponent, DefDesign, DefPin, from_physical, read_def, write_def
from .drc import DrcReport, DrcViolation, check_drc, flatten_rects
from .gds import (
    GdsLibrary,
    GdsSRef,
    GdsStruct,
    GdsText,
    from_db,
    read_gds,
    to_db,
    write_gds,
)
from .geometry import Rect, bounding_box, wire_rect
from .lvs import LvsReport, check_lvs

__all__ = [
    "DefComponent",
    "DefDesign",
    "DefPin",
    "DrcReport",
    "DrcViolation",
    "GdsLibrary",
    "GdsSRef",
    "GdsStruct",
    "GdsText",
    "LvsReport",
    "Rect",
    "bounding_box",
    "build_chip_gds",
    "check_drc",
    "check_lvs",
    "from_physical",
    "flatten_rects",
    "from_db",
    "read_def",
    "read_gds",
    "to_db",
    "wire_rect",
    "write_def",
    "write_gds",
]
