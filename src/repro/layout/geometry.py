"""Planar geometry primitives for layout and DRC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle; coordinates in micrometres."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"malformed rect {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def min_dimension(self) -> float:
        return min(self.width, self.height)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def intersects(self, other: "Rect") -> bool:
        """True when the interiors overlap (touching edges do not count)."""
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def distance(self, other: "Rect") -> float:
        """Euclidean gap between rectangles (0 when touching/overlapping)."""
        dx = max(0.0, max(self.x0, other.x0) - min(self.x1, other.x1))
        dy = max(0.0, max(self.y0, other.y0) - min(self.y1, other.y1))
        return (dx * dx + dy * dy) ** 0.5

    def grown(self, margin: float) -> "Rect":
        return Rect(
            self.x0 - margin, self.y0 - margin,
            self.x1 + margin, self.y1 + margin,
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def union_bbox(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x0, other.x0), min(self.y0, other.y0),
            max(self.x1, other.x1), max(self.y1, other.y1),
        )


def bounding_box(rects: list[Rect]) -> Rect:
    """Tight bounding box of a non-empty rectangle list."""
    if not rects:
        raise ValueError("bounding box of no rectangles")
    return Rect(
        min(r.x0 for r in rects),
        min(r.y0 for r in rects),
        max(r.x1 for r in rects),
        max(r.y1 for r in rects),
    )


def wire_rect(x0: float, y0: float, x1: float, y1: float, width: float) -> Rect:
    """Rectangle for a wire segment centred on the given endpoints.

    Segments must be horizontal or vertical; ``width`` is the wire width.
    """
    half = width / 2.0
    if abs(x1 - x0) < 1e-9:  # vertical
        lo, hi = min(y0, y1), max(y0, y1)
        return Rect(x0 - half, lo - half, x0 + half, hi + half)
    if abs(y1 - y0) < 1e-9:  # horizontal
        lo, hi = min(x0, x1), max(x0, x1)
        return Rect(lo - half, y0 - half, hi + half, y0 + half)
    raise ValueError("wire segments must be axis-aligned")


def shared_bin_pairs(
    bx0: np.ndarray, by0: np.ndarray, bx1: np.ndarray, by1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, second)`` indexes of every pair of boxes that share a
    bin, box ``i`` covering bins ``bx0[i]..bx1[i]`` by
    ``by0[i]..by1[i]``.

    Bins come in creation order, the order a scan over the boxes, then
    bin columns, then bin rows first reaches them; a bin's members come
    in box order, and its pairs as the row-major ``i < j`` upper
    triangle.  A pair sharing several bins is listed once per bin.
    """
    # One entry per (box, bin), in scan order.
    high = by1 - by0 + 1
    per_box = (bx1 - bx0 + 1) * high
    box = np.repeat(np.arange(len(bx0)), per_box)
    local = np.arange(len(box)) - np.repeat(np.cumsum(per_box) - per_box,
                                            per_box)
    bx = bx0[box] + local // high[box]
    by = by0[box] + local % high[box]
    # Entries grouped by bin; the stable sort keeps each bin's members
    # in scan order, so a group's first entry is the bin's creation.
    order = np.lexsort((by, bx))
    bx, by = bx[order], by[order]
    start = np.flatnonzero(
        np.append(True, (bx[1:] != bx[:-1]) | (by[1:] != by[:-1]))
    )
    size = np.diff(np.append(start, len(order)))
    shared = size >= 2
    start, size = start[shared], size[shared]
    created = np.argsort(order[start])
    start, size = start[created], size[created]
    # Members of the shared bins, bins in creation order.
    offset = np.cumsum(size) - size
    member = box[order[
        np.repeat(start - offset, size) + np.arange(int(size.sum()))
    ]]
    # Member k of a bin of s pairs with the s - 1 - k members after it.
    after = np.repeat(offset + size, size) - np.arange(len(member)) - 1
    head = np.repeat(np.arange(len(member)) + 1, after)
    step = np.arange(len(head)) - np.repeat(np.cumsum(after) - after, after)
    return np.repeat(member, after), member[head + step]
