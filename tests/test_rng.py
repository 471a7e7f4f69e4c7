import numpy as np
import pytest

from pemskit.rng import GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed, mix64

# First five outputs of SplitMix64 seeded with 0, from the public
# reference implementation.  Pinning them guarantees every stochastic
# step downstream (splits, bootstraps, predictor draws) is portable.
SEED0_VECTOR = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_reference_vector_seed_zero():
    gen = SplitMix64(0)
    assert tuple(gen.next_uint64() for _ in range(5)) == SEED0_VECTOR


def test_mix64_matches_inline_reference():
    # independent transcription of the three-line finalizer
    def ref(z):
        z &= MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    for z in (0, 1, GOLDEN_GAMMA, MASK64, 0x0123456789ABCDEF):
        assert mix64(z) == ref(z)


def test_stream_is_deterministic_and_seed_sensitive():
    a = [SplitMix64(42).next_uint64() for _ in range(20)]
    b = [SplitMix64(42).next_uint64() for _ in range(20)]
    c = [SplitMix64(43).next_uint64() for _ in range(20)]
    assert a == b
    assert a != c


def test_seed_is_masked_to_64_bits():
    wide = SplitMix64((1 << 64) + 7)
    narrow = SplitMix64(7)
    assert wide.next_uint64() == narrow.next_uint64()


def test_random_unit_interval_and_53_bit_grid():
    gen = SplitMix64(1)
    draws = [gen.random() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    # every value sits on the 2**-53 lattice
    assert all(u * 2.0**53 == float(int(u * 2.0**53)) for u in draws)


def test_below_range_and_modulo_rule():
    gen = SplitMix64(9)
    shadow = SplitMix64(9)
    for n in (1, 2, 3, 7, 100, 12345):
        v = gen.below(n)
        assert v == shadow.next_uint64() % n
        assert 0 <= v < n


def test_below_rejects_nonpositive():
    gen = SplitMix64(0)
    with pytest.raises(ValueError):
        gen.below(0)
    with pytest.raises(ValueError):
        gen.below(-3)
    for n in (0, -3):
        with pytest.raises(ValueError):
            gen.integers_below(n, 5)


# the block draws must equal the scalar loop from any state, including
# those next to the 2**64 wrap
_SEEDS = [0, MASK64, MASK64 - GOLDEN_GAMMA] + [
    int(s) for s in np.random.default_rng(16).integers(
        0, MASK64, size=3, dtype=np.uint64, endpoint=True)]


def test_integers_below_equals_repeated_below():
    for seed in _SEEDS:
        for n in (1, 2, 7, 5000):
            for size in (0, 1, 5000):
                block, loop = SplitMix64(seed), SplitMix64(seed)
                got = block.integers_below(n, size)
                assert got.dtype == np.int64
                assert got.tolist() == [loop.below(n) for _ in range(size)]
                assert block._state == loop._state


@pytest.mark.parametrize("container", [list, np.array])
@pytest.mark.parametrize("length", [0, 1, 2, 7, 5000])
def test_shuffle_is_the_below_loop(length, container):
    for seed in _SEEDS:
        block, loop = SplitMix64(seed), SplitMix64(seed)
        got = container(range(length))
        block.shuffle(got)
        want = list(range(length))
        for i in range(length - 1, 0, -1):
            j = loop.below(i + 1)
            want[i], want[j] = want[j], want[i]
        assert list(got) == want
        assert block._state == loop._state


def test_shuffle_is_a_permutation_and_deterministic():
    base = list(range(30))
    x = base[:]
    SplitMix64(7).shuffle(x)
    y = base[:]
    SplitMix64(7).shuffle(y)
    assert x == y
    assert sorted(x) == base
    assert x != base  # astronomically unlikely to be identity


def test_derive_seed_identity_and_distinct_children():
    assert derive_seed(123) == 123
    children = {derive_seed(0, part) for part in range(100)}
    assert len(children) == 100
    # order of labels matters
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    # single-label child in closed form: one SplitMix64 step
    assert derive_seed(7, 2011) == mix64((7 ^ 2011) + GOLDEN_GAMMA)


def test_derived_streams_do_not_overlap_by_construction():
    a = SplitMix64(derive_seed(0, 2011))
    b = SplitMix64(derive_seed(0, 2012))
    xs = [a.next_uint64() for _ in range(100)]
    ys = [b.next_uint64() for _ in range(100)]
    assert not set(xs) & set(ys)
