"""The pure-Python PCG64 stream against numpy's ``default_rng``."""

import random

import numpy as np
import pytest

from phonospace import generic_model, sample, sample_with_rng
from phonospace.prng import Pcg64

SEEDS = list(range(200)) + [2**32, 2**40 + 5, 2**64 + 7, 2**128 + 3]
# range sizes: no draw, the 32-bit Lemire path, exactly 2**32, the 64-bit path
SIZES = [1, 2, 129, 2**32 - 1, 2**32, 2**32 + 3, 2**40, 2**63]


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    plan = random.Random(seed)  # which call comes next
    for i in range(300):
        kind = plan.randrange(3)
        if kind == 0:
            assert ours.random() == theirs.random(), i
            continue
        size = plan.choice(SIZES)
        if kind == 1:
            low = plan.randrange(-100, 1)
            assert ours.integers(low, low + size) == int(theirs.integers(low, low + size)), i
        else:
            assert ours.integers(size) == int(theirs.integers(size)), i


# spans whose Lemire threshold rejects about a quarter of the draws: 32-bit and 64-bit paths
REJECTING = [3 * 2**30, 3 * 2**62]


@pytest.mark.parametrize("seed", range(60))
def test_rejected_draws_keep_the_banked_half(seed):
    # a rejected 32-bit draw may take the banked upper half or bank a new one;
    # doubles and 64-bit draws in between leave the bank as it is
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    plan = random.Random(seed)
    for i in range(300):
        kind = plan.randrange(3)
        if kind == 0:
            assert ours.random() == theirs.random(), i
            continue
        size = plan.choice(REJECTING + [129, 2**32 + 3])
        if kind == 1 or size > 2**63:
            # a span past 2**63 needs a negative low to stay within int64
            low = plan.randrange(-100, 1) - (2**62 if size > 2**63 else 0)
            assert ours.integers(low, low + size) == int(theirs.integers(low, low + size)), i
        else:
            assert ours.integers(size) == int(theirs.integers(size)), i


def test_full_int64_range_matches_numpy():
    ours, theirs = Pcg64(5), np.random.default_rng(5)
    lo, hi = -(2**63), 2**63
    for _ in range(50):
        assert ours.integers(lo, hi) == int(theirs.integers(lo, hi))
        assert ours.random() == theirs.random()


def test_single_value_range_draws_nothing():
    rng = Pcg64(9)
    assert [rng.integers(4, 5) for _ in range(10)] == [4] * 10
    assert rng.random() == np.random.default_rng(9).random()


def test_negative_seed_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(-1)


def test_empty_and_out_of_range_bounds_rejected():
    rng = Pcg64(0)
    for low, high in [(3, 3), (0, 0), (5, 2)]:
        with pytest.raises(ValueError):
            rng.integers(low, high)
    with pytest.raises(ValueError):
        rng.integers(0, 2**63 + 1)


@pytest.mark.parametrize("which", ["alphabet", "mini_alphabet"])
def test_sample_equals_numpy_generator_stream(request, which):
    model = generic_model(request.getfixturevalue(which))
    for seed in range(8):
        for k in (1, 3):
            assert sample(model, k, seed=seed) == sample_with_rng(
                model, k, np.random.default_rng(seed))
