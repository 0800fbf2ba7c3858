"""Counter-based randomness built on Philox.

A stream is addressed by (seed, stream, lane, time, index): the 128-bit key
carries (seed, stream), the 256-bit counter starts at (lane << 192) |
(index << 128) | (time << 64).  Every draw is then a pure function of that
address and never depends on scheduling, batch layout, or thread count.
Replicates are grouped into fixed blocks of REPLICATE_BLOCK rows; a replicate
always reads the same row of its block's draw matrix regardless of how many
replicates run alongside it.

block() builds a generator at an address; seek() moves an existing one to
another address, where it draws the same values, so a loop over many
addresses needs only one generator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CounterRng", "REPLICATE_BLOCK", "LANE_INIT", "LANE_NOISE", "LANE_SCHEDULE"]

REPLICATE_BLOCK = 1024

LANE_INIT = 1
LANE_NOISE = 2
LANE_SCHEDULE = 3

_MASK64 = (1 << 64) - 1


class CounterRng:
    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64

    @staticmethod
    def _counter(lane: int, t: int, index: int) -> int:
        """Initial 256-bit Philox counter of the (lane, t, index) stream."""
        if lane < 0 or t < 0 or index < 0:
            raise ValueError("lane, t, and index must be non-negative")
        counter = (int(lane) << 192) | (int(index) << 128) | (int(t) << 64)
        if counter >> 256:
            raise ValueError("lane, t, and index address a counter past 256 bits")
        return counter

    def block(self, lane: int, t: int = 0, index: int = 0) -> np.random.Generator:
        """Fresh generator for the (lane, t, index) stream."""
        counter = self._counter(lane, t, index)
        # a uint64 array: a list holding a value >= 2^63 would pass through float64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def seek(self, gen: np.random.Generator, lane: int, t: int = 0, index: int = 0) -> None:
        """Move gen, a generator from this CounterRng's block(), to the
        (lane, t, index) stream: it keeps its key, takes that stream's
        counter and drops its buffered words, so it then draws exactly what
        block(lane, t, index) would."""
        counter = self._counter(lane, t, index)
        state = gen.bit_generator.state
        state["state"]["counter"] = np.array(
            [(counter >> s) & _MASK64 for s in (0, 64, 128, 192)], dtype=np.uint64
        )
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        gen.bit_generator.state = state
