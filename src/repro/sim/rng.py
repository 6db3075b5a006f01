"""Deterministic random-number streams for workloads.

Every stochastic workload in this package draws from a named substream so
that (a) runs are bit-for-bit reproducible given a seed and (b) adding a
new consumer of randomness does not perturb existing ones.  A substream
is keyed by its entropy words ``(root seed, hash of the name, *keys)``,
which seed a ``numpy.random.SeedSequence``; each word tuple is mixed once
per process and its PCG64 seed state reused (see docs/hotpath.md).

:class:`BoundedInts` serves scalar ``integers(0, n)`` draws from raw
uint32 blocks, for hot loops that pay numpy's per-call overhead on
every draw (see docs/hotpath.md for why its values are identical).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["BoundedInts", "RngFactory"]

_U32 = 1 << 32
_MASK32 = _U32 - 1
#: Raw draws per numpy call: a traffic source draws ~55 targets per
#: probe, so one block usually serves its whole life.
_BLOCK = 64


@functools.lru_cache(maxsize=64)
def _name_key(name: str) -> int:
    # Stable string -> int hashing (Python's hash() is salted per run).
    return sum(ord(ch) * 257**i for i, ch in enumerate(name)) % (2**31)


@functools.lru_cache(maxsize=1024)
def _seed_state(words: tuple[int, ...]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, uint64)``: PCG64's seed.

    Mixing a SeedSequence is most of the cost of a stream, and a process
    asks for the same streams again and again (every point of a sweep
    rebuilds its pickers), so the result is kept, read-only.  Negative
    words raise SeedSequence's ValueError, which is never cached.
    """
    # SeedSequence splits each int into little-endian uint32 words,
    # so when every word fits in one, a uint32 array is the same
    # entropy and skips the per-int coercion.  Otherwise the list
    # goes in as is: wide keys split as before and negative ones
    # raise.
    entropy: list[int] | np.ndarray = list(words)
    if all(0 <= w < _U32 for w in words):
        entropy = np.array(words, dtype=np.uint32)
    state = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    state.flags.writeable = False
    return state


class _SeededState(ISeedSequence):
    """Hands ``PCG64`` a seed state that ``_seed_state`` already made.

    ``PCG64`` asks its seed for ``generate_state(4, uint64)`` once, at
    construction, and copies the answer.  That is the only request this
    seed can answer; any other raises rather than return another state.
    """

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds a PCG64 seed: 4 uint64 words only")
        return self._state


class RngFactory:
    """Creates independent, named ``numpy.random.Generator`` streams.

    >>> rngs = RngFactory(seed=42)
    >>> a = rngs.stream("gups", 0)
    >>> b = rngs.stream("gups", 1)

    The same (name, key) pair always yields an identically-seeded
    generator for a given root seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def stream(self, name: str, *keys: int) -> np.random.Generator:
        """Return a generator for substream ``name`` with integer keys."""
        words = (self.seed, _name_key(name), *map(int, keys))
        return np.random.Generator(
            np.random.PCG64(_SeededState(_seed_state(words)))
        )


class BoundedInts:
    """Scalar bounded draws from ``gen``, served from raw uint32 blocks.

    ``below(n)`` returns exactly what ``gen.integers(0, n)`` would for
    ``1 <= n <= 2**32``, draw for draw, as long as nothing else draws
    from ``gen``: it takes raw uint32 values a block at a time (one
    numpy call) and applies numpy's own Lemire rejection to them in
    Python, which is several times cheaper than a numpy call per draw.
    """

    __slots__ = ("_gen", "_next")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._next = iter(()).__next__

    def _refill(self) -> int:
        raw = self._gen.integers(0, _U32, size=_BLOCK, dtype=np.uint32)
        self._next = iter(raw.tolist()).__next__
        return self._next()

    def below(self, n: int) -> int:
        """A uniform int in ``[0, n)``, as ``gen.integers(0, n)``."""
        if n <= 1 or n >= _U32:
            if n == 1:
                return 0  # numpy returns the low end without a draw
            if n != _U32:
                raise ValueError(f"bound must be in [1, 2**32], got {n}")
        try:
            x = self._next()
        except StopIteration:
            x = self._refill()
        if n == _U32:
            return x
        # numpy's buffered_bounded_lemire_uint32 with rng_excl = n.
        m = x * n
        if m & _MASK32 < n:
            threshold = (_U32 - n) % n
            while m & _MASK32 < threshold:
                try:
                    x = self._next()
                except StopIteration:
                    x = self._refill()
                m = x * n
        return m >> 32
