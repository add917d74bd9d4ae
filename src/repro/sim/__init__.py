"""Simulation: RTL simulator, waveform tracing, testbench harness,
and the word-parallel (bit-packed) engines."""

from .bitsim import (
    LANES,
    PackedGateSimulator,
    PackedMappedSimulator,
    PackedSimError,
    broadcast_word,
    extract_lane,
    extract_lane_vector,
    pack_word,
    unpack_word,
)
from .engine import Simulator
from .testbench import Testbench, TestbenchResult
from .vcd import VcdWriter

__all__ = [
    "LANES",
    "PackedGateSimulator",
    "PackedMappedSimulator",
    "PackedSimError",
    "Simulator",
    "Testbench",
    "TestbenchResult",
    "VcdWriter",
    "broadcast_word",
    "extract_lane",
    "extract_lane_vector",
    "pack_word",
    "unpack_word",
]
