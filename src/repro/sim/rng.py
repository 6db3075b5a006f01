"""Deterministic random-number streams for workloads.

Every stochastic workload in this package draws from a named substream so
that (a) runs are bit-for-bit reproducible given a seed and (b) adding a
new consumer of randomness does not perturb existing ones.  Substreams are
derived from a root seed with ``numpy.random.SeedSequence.spawn``-style
keying.

:class:`BoundedInts` serves scalar ``integers(0, n)`` draws from raw
uint32 blocks, for hot loops that pay numpy's per-call overhead on
every draw (see docs/hotpath.md for why its values are identical).
"""

from __future__ import annotations

import functools

import numpy as np

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
        words = [self.seed, _name_key(name), *[int(k) for k in keys]]
        # SeedSequence splits each int into little-endian uint32 words,
        # so when every word fits in one, a uint32 array is the same
        # entropy and skips the per-int coercion.  Otherwise the list
        # goes in as is: wide keys split as before and negative ones
        # raise SeedSequence's ValueError.
        entropy: list[int] | np.ndarray = words
        if all(0 <= w < _U32 for w in words):
            entropy = np.array(words, dtype=np.uint32)
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy))
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
