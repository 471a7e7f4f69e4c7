"""Seeded, portable random primitives.

Every stochastic step in the toolkit (partition shuffling, bootstrap
sampling, per-split predictor draws) is driven by SplitMix64, a tiny
64-bit generator with a published reference implementation (Steele,
Lea & Flood 2014; Vigna's public-domain C version).  It is used here
because the whole state is one 64-bit word, the update is three
multiply/xor-shift lines that behave identically on any platform, and
derived streams are cheap to construct.  Nothing ever touches global
random state.

Conventions, fixed so that results reproduce bit-for-bit:

* ``below(n)`` reduces a raw 64-bit draw modulo ``n`` (the bias of at
  most n/2**64 is irrelevant at these sizes).
* ``random()`` keeps the top 53 bits, giving a uniform double in [0, 1).
* ``shuffle`` is a backward Fisher-Yates using ``below``.
* ``integers_below`` and ``shuffle`` draw their whole block at once:
  SplitMix64 is a counter generator, so draw i of the block is
  ``mix64(state + i * GOLDEN_GAMMA)`` in wrapping uint64 arithmetic,
  the same value the scalar ``below`` loop gives, in one numpy pass.
* ``derive_seed(seed, *parts)`` folds integer labels (a year, a tree
  index) into an independent child seed, so parallel work never shares
  a stream.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer: avalanche a 64-bit word, given as a Python
    int or elementwise over a uint64 array (whose products wrap)."""
    z = z & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Deterministically derive a child seed from a parent seed and labels.

    ``derive_seed(s)`` == ``s``; each extra label is absorbed with one
    SplitMix64 step, so (seed, 2011) and (seed, 2012) give unrelated
    streams.
    """
    state = seed & MASK64
    for part in parts:
        state = mix64((state ^ (int(part) & MASK64)) + GOLDEN_GAMMA)
    return state


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_uint64() % n

    def _next_block(self, size: int) -> np.ndarray:
        """The next ``size`` raw draws as a uint64 array; the stream
        advances by ``size`` steps, as ``size`` calls of next_uint64 do."""
        steps = np.arange(1, size + 1, dtype=np.uint64)
        block = mix64(steps * np.uint64(GOLDEN_GAMMA) + np.uint64(self._state))
        self._state = (self._state + size * GOLDEN_GAMMA) & MASK64
        return block

    def integers_below(self, n: int, size: int) -> np.ndarray:
        """``size`` draws of ``below(n)`` as an int64 array."""
        if n <= 0:
            raise ValueError("integers_below() needs n >= 1")
        return (self._next_block(size) % np.uint64(n)).astype(np.int64)

    def shuffle(self, values) -> None:
        """In-place backward Fisher-Yates shuffle of a mutable sequence:
        position i swaps with ``below(i + 1)``, for i = len - 1 down to 1."""
        items = list(values)          # swaps of list items are cheapest
        bounds = np.arange(len(items), 1, -1, dtype=np.uint64)
        picks = self._next_block(bounds.shape[0]) % bounds
        for i, j in zip(range(len(items) - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]
        values[:] = items
