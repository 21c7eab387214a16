"""The one factor walk (``plan_factors``) and the sampler's record of its draws."""

import numpy as np
import pytest

from phonospace import (
    InvalidPhoneString,
    Manner,
    Phone,
    ProsodicVector,
    factor_key,
    generic_model,
    legal_stress_sequences,
    parse_and_plan,
    plan_factors,
    Unit,
    train,
)
from phonospace.model import _AWAY, _realize_markers
from phonospace.prng import Pcg64
from conftest import random_valid_string


@pytest.fixture(params=["default", "mini"])
def some_alphabet(request, alphabet, mini_alphabet):
    return alphabet if request.param == "default" else mini_alphabet


class TestPlanFactors:
    def test_equals_the_plan_walk(self, some_alphabet):
        rng = np.random.default_rng(2201)
        for _ in range(150):
            phones = random_valid_string(rng, some_alphabet, max_len=14)
            s, _parse, _scores, classes, plan = parse_and_plan(phones, some_alphabet)
            collapsed, got_classes, pairs = plan_factors(phones, some_alphabet)
            assert collapsed == s
            assert got_classes == classes
            assert list(pairs) == [factor_key(s, f) for f in plan.factors]

    def test_validates_at_the_call(self, mini_alphabet):
        vowel = next(m for m in mini_alphabet if m.manner is Manner.VOWEL)
        with pytest.raises(InvalidPhoneString):
            plan_factors([Phone(vowel, ProsodicVector())], mini_alphabet)

    def test_pairs_are_built_as_they_are_read(self, mini_alphabet):
        rng = np.random.default_rng(2202)
        phones = random_valid_string(rng, mini_alphabet, max_len=10)
        _s, _classes, pairs = plan_factors(phones, mini_alphabet)
        assert iter(pairs) is pairs  # a generator, not a list
        s, *_, plan = parse_and_plan(phones, mini_alphabet)
        assert next(pairs) == factor_key(s, plan.factors[0])


def _draw_records(model, seed, n, max_syllables=3):
    """Per realization, (the pairs ``_realize_markers`` returned, the draws a proxy on ``model.dist`` saw), or None."""
    calls = []
    lookup = model.dist

    class Recording:  # stands in for a looked-up dist and records each draw from it
        def __init__(self, key):
            self.key = key

        def sample(self, rng):
            t = lookup(self.key).sample(rng)
            calls.append((self.key, t))
            return t

    model.dist = Recording  # an instance attribute shadows the method
    rng = Pcg64(seed)
    out = []
    for _ in range(n):
        options = legal_stress_sequences(int(rng.integers(1, max_syllables + 1)))
        classes = options[int(rng.integers(len(options)))]
        calls.clear()
        realized = _realize_markers(model, classes, rng)
        out.append(None if realized is None else (realized[1], list(calls)))
    return out


class TestDrawRecord:
    @pytest.mark.parametrize("epsilon", [0.05, 0.1])
    def test_pairs_are_the_dist_draws_in_order(self, some_alphabet, epsilon):
        records = _draw_records(generic_model(some_alphabet, epsilon=epsilon), seed=2203, n=200)
        realized = [r for r in records if r is not None]
        assert len(realized) > 50
        for pairs, calls in realized:
            assert pairs == calls
        drawn = [pair for pairs, _ in realized for pair in pairs]
        # the record covers null draws, nuclei and both directions of growth
        assert any(t is None for _, t in drawn)
        sides = {(key.unit, (key.unit, key.stress) in _AWAY) for key, _ in drawn}
        assert {(Unit.NUCLEUS, False), (Unit.ONSET, True), (Unit.ONSET, False),
                (Unit.RHYME, True), (Unit.RHYME, False)} <= sides

    def test_under_a_trained_model(self, mini_alphabet):
        corpus = [random_valid_string(np.random.default_rng(s), mini_alphabet, max_len=12)
                  for s in range(40)]
        for record in _draw_records(train(corpus, alphabet=mini_alphabet), seed=2204, n=100):
            if record is not None:
                assert record[0] == record[1]
