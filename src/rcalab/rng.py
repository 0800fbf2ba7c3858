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

The address fixes which 64-bit Philox words are drawn, not how they become
noise.  numpy's Generator.random turns word w into the double
(w >> 11) * 2^-53, so a comparison u >= c of a uniform with a threshold is
the comparison w >= word_threshold(c) of the word it came from: samplers
draw_words and compare those, which skips the conversion and gives the same
integers as comparing the uniforms.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CounterRng",
    "REPLICATE_BLOCK",
    "LANE_INIT",
    "LANE_NOISE",
    "LANE_SCHEDULE",
    "draw_words",
    "word_threshold",
]

REPLICATE_BLOCK = 1024

LANE_INIT = 1
LANE_NOISE = 2
LANE_SCHEDULE = 3

_MASK64 = (1 << 64) - 1


def draw_words(gen: np.random.Generator, shape) -> np.ndarray:
    """The next 64-bit words of gen's stream, one per element of shape: on
    the full uint64 range Generator.integers returns the words unchanged,
    the ones Generator.random would have turned into uniforms."""
    return gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)


def word_threshold(c) -> np.ndarray:
    """Least 64-bit word w whose uniform (w >> 11) * 2^-53 is >= c, for c
    (a float or an array of them) in [0, 1).  (w >> 11) * 2^-53 >= c holds
    iff w >> 11 >= ceil(c * 2^53), scaling by 2^53 being exact; and c <= 1 -
    2^-53, the largest double below 1, keeps the shifted ceiling below 2^64."""
    c = np.asarray(c, dtype=np.float64)
    if not ((c >= 0) & (c < 1)).all():
        raise ValueError("word thresholds are defined for c in [0, 1)")
    return np.ceil(np.ldexp(c, 53)).astype(np.uint64) << np.uint64(11)


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
