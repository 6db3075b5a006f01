"""Deterministic RNG stream tests."""

import numpy as np
import pytest

from repro.sim import RngFactory
from repro.sim.rng import BoundedInts, _name_key


def test_same_name_and_key_reproduce():
    a = RngFactory(42).stream("gups", 3)
    b = RngFactory(42).stream("gups", 3)
    assert np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))


def test_different_keys_differ():
    a = RngFactory(42).stream("gups", 0)
    b = RngFactory(42).stream("gups", 1)
    assert not np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))


def test_different_names_differ():
    a = RngFactory(42).stream("gups", 0)
    b = RngFactory(42).stream("loadtest", 0)
    assert not np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))


def test_different_seeds_differ():
    a = RngFactory(1).stream("x", 0)
    b = RngFactory(2).stream("x", 0)
    assert not np.array_equal(a.integers(0, 1000, 50), b.integers(0, 1000, 50))


# ----------------------------------------------------------------------
# BoundedInts and the stream construction are draw-for-draw identical
# to the plain numpy calls they replace
# ----------------------------------------------------------------------
#: Interleaved bounds: tiny, a power of two, the traffic address space,
#: and the bounds near 2**32 where Lemire rejection fires often.
BOUNDS = [1, 2, 7, 32, 2**24, 2**31 + 12345, 2**32 - 1, 2**32, 3 * 10**9]


def test_bounded_ints_match_generator_integers():
    draws = 0
    for seed in range(40):
        reference = np.random.default_rng(seed)
        bounded = BoundedInts(np.random.default_rng(seed))
        for i in range(400):
            n = BOUNDS[(i * 7 + seed) % len(BOUNDS)]
            want = int(reference.integers(0, n))
            got = bounded.below(n)
            assert got == want, (seed, i, n)
            assert type(got) is int
            draws += 1
    assert draws == 40 * 400


def test_bounded_ints_rejects_out_of_range_bounds():
    bounded = BoundedInts(np.random.default_rng(0))
    for n in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError):
            bounded.below(n)


def _old_stream(seed, name, *keys):
    name_key = sum(ord(ch) * 257**i for i, ch in enumerate(name)) % (2**31)
    seq = np.random.SeedSequence([seed, name_key, *[int(k) for k in keys]])
    return np.random.default_rng(seq)


@pytest.mark.parametrize("seed,name,keys", [
    (0, "traffic-targets", (0, 0)),
    (42, "gups", (3,)),
    (7, "loadtest", ()),
    (2**32 - 1, "x", (2**32 - 1, 5)),
    (2**32, "traffic-arrivals", (1, 2)),        # wide seed: list path
    (3, "oltp", (2**40 + 9,)),                  # wide key: list path
    (2**70, "hotspot", (2**33, 0)),
])
def test_stream_state_matches_old_construction(seed, name, keys):
    new = RngFactory(seed).stream(name, *keys)
    old = _old_stream(seed, name, *keys)
    assert new.bit_generator.state == old.bit_generator.state
    assert new.integers(0, 1000, 20).tolist() == old.integers(0, 1000, 20).tolist()


def test_stream_negative_key_still_raises():
    with pytest.raises(ValueError):
        _old_stream(0, "gups", -1)
    with pytest.raises(ValueError):
        RngFactory(0).stream("gups", -1)
    with pytest.raises(ValueError):
        RngFactory(-5).stream("gups", 0)


def test_name_key_is_stable():
    assert _name_key("gups") == sum(
        ord(ch) * 257**i for i, ch in enumerate("gups")) % (2**31)
