import bisect
import dataclasses
import gc
import io
import itertools
import math
import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    InvalidPhoneString,
    Phone,
    PhoneString,
    ProsodicLimits,
    ProsodicVector,
    StressClass,
    Unit,
    admissible_targets,
    classify_stress,
    check_diphthongal_syllable,
    factor_key,
    generic_model,
    is_diphthongal_step,
    legal_stress_sequences,
    load_model,
    parse_and_plan,
    sample,
    sample_with_rng,
    save_model,
    score,
    train,
)
from phonospace.model import (
    AlphabetMismatchError, ModelError, ModelFormatError, LanguageModel, model_to_json)
from phonospace.prng import Pcg64
from conftest import random_prosody, random_valid_string, reference_json
from oracle import oracle_score

S, U = StressClass.STRESSED, StressClass.UNSTRESSED
LTR, RTL = StressClass.MIDDLING_LTR, StressClass.MIDDLING_RTL


def mini_markers(mini_alphabet):
    by_symbol = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
    return by_symbol


def ph(marker, **kv):
    return Phone(marker, ProsodicVector(**kv))


class TestGeneric:
    def test_epsilon_range_checked(self, mini_alphabet):
        with pytest.raises(ModelError):
            generic_model(mini_alphabet, epsilon=1.0)
        with pytest.raises(ModelError):
            generic_model(mini_alphabet, epsilon=-0.1)

    def test_admissible_set_matches_brute_force(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        adm = admissible_targets(mini_alphabet, key)
        brute = {t for t in mini_alphabet if is_diphthongal_step(mm["i"], t)}
        assert adm == brute

    def test_generic_probabilities(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        eps = 0.2
        m = generic_model(mini_alphabet, epsilon=eps)
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        dist = m.dist(key)
        adm = admissible_targets(mini_alphabet, key)
        share = (1 - eps) / (len(adm) + 1)
        assert dist.prob(None) == pytest.approx(share, abs=1e-15)
        for t in adm:
            assert dist.prob(t) == pytest.approx(share, abs=1e-15)
        excluded = [t for t in mini_alphabet if t not in adm]
        for t in excluded:
            assert dist.prob(t) == pytest.approx(eps / len(excluded), abs=1e-15)

    def test_zero_epsilon_blocks_non_diphthongal(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        m = generic_model(mini_alphabet, epsilon=0.0)
        dist = m.dist(CondKey(Unit.RHYME, S, (mm["i"],)))
        adm = admissible_targets(mini_alphabet, CondKey(Unit.RHYME, S, (mm["i"],)))
        for t in mini_alphabet:
            if t not in adm:
                assert dist.prob(t) == 0.0

    def test_all_generic_dists_normalized(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.1)
        targets = [None] + list(mini_alphabet)
        for unit in Unit:
            for cls in StressClass:
                for c in targets:
                    d = m.dist(CondKey(unit, cls, (c,)))
                    assert abs(sum(p for _, p in d.entries) - 1.0) < 1e-9

    def test_unconstrained_context_is_uniform(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.3)
        d = m.dist(CondKey(Unit.NUCLEUS, S, (None,)))
        assert all(p == pytest.approx(1 / 11) for _, p in d.entries)


class TestDist:
    def test_null_required_in_support(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        with pytest.raises(ModelFormatError, match="null"):
            CategoricalDist([(mm["i"], 1.0)])

    def test_normalization_enforced(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        with pytest.raises(ModelFormatError, match="non-normalized"):
            CategoricalDist([(None, 0.5), (mm["i"], 0.4)])

    def test_tv_distance_bounds(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.1)
        mm = mini_markers(mini_alphabet)
        d1 = m.dist(CondKey(Unit.RHYME, S, (mm["i"],)))
        d2 = m.dist(CondKey(Unit.RHYME, S, (mm["o"],)))
        assert d1.tv_distance(d1) == 0.0
        assert 0.0 <= d1.tv_distance(d2) <= 1.0


class TestScore:
    def test_four_half_factors(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        phones = [ph(mm["Q"]), ph(mm["p"]), ph(mm["i"]), ph(mm["n"]), ph(mm["Q"])]
        s, parse, scores, classes, plan = parse_and_plan(phones, mini_alphabet)
        assert classes == [S] and len(plan.factors) == 4
        support = [None] + list(mini_alphabet)
        tables = {}
        for f in plan.factors:
            key, target = factor_key(s, f)
            rest = [t for t in support if t != target]
            tables[key] = CategoricalDist([(target, 0.5)] + [(t, 0.5 / len(rest)) for t in rest])
        width1 = ProsodicLimits(R=(0, 0), T=(0, 0), D=(0, 0), L=(0, 0),
                                N=frozenset({0}), V=frozenset({0}))
        model = LanguageModel(alphabet=mini_alphabet, tables=tables, epsilon=0.0,
                              alpha=0.0, limits=width1)
        assert score(model, phones) == pytest.approx(4 * math.log(0.5), abs=1e-12)

    def test_out_of_limits_is_minus_inf(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        m = generic_model(mini_alphabet, epsilon=0.1,
                          limits=ProsodicLimits(T=(-2, 2)))
        phones = [ph(mm["Q"]), ph(mm["i"], T=5), ph(mm["Q"])]
        assert score(m, phones) == float("-inf")

    def test_zero_probability_factor_is_minus_inf(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        m = generic_model(mini_alphabet, epsilon=0.0)
        # o -> i within one rhyme is not diphthongal (openClose rises)
        phones = [ph(mm["Q"]), ph(mm["o"]), ph(mm["i"]), ph(mm["Q"])]
        assert score(m, phones) == float("-inf")

    def test_unknown_marker_raises(self, mini_alphabet, alphabet, mk):
        m = generic_model(mini_alphabet, epsilon=0.1)
        stranger = mk("vowel:central:mid:glottal")
        phones = [ph(mini_markers(mini_alphabet)["Q"]), Phone(stranger),
                  ph(mini_markers(mini_alphabet)["Q"])]
        from phonospace import InvalidPhoneString
        with pytest.raises(InvalidPhoneString):
            score(m, phones)

    def test_matches_oracle_on_random_strings(self, mini_alphabet, rng):
        from phonospace import StressWeights
        m = generic_model(mini_alphabet, epsilon=0.1)
        w = StressWeights()
        for _ in range(300):
            phones = random_valid_string(rng, mini_alphabet, max_len=7, prosody_span=4)
            lib = score(m, phones, w)
            ora = oracle_score(m, phones, w)
            if math.isinf(lib) or math.isinf(ora):
                assert lib == ora
            else:
                assert abs(lib - ora) <= 1e-12


class TestTrain:
    def test_counting(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        phones = [ph(mm["Q"]), ph(mm["p"]), ph(mm["i"]), ph(mm["n"]), ph(mm["Q"])]
        m = train([phones] * 100, alpha=0.0, epsilon=0.05, alphabet=mini_alphabet)
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        assert m.dist(key).prob(mm["n"]) == 1.0

    def test_smoothing_pulls_toward_uniform(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        phones = [ph(mm["Q"]), ph(mm["p"]), ph(mm["i"]), ph(mm["n"]), ph(mm["Q"])]
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        maxima = []
        for alpha in (0.0, 0.5, 5.0, 5e5):
            m = train([phones] * 10, alpha=alpha, alphabet=mini_alphabet)
            maxima.append(max(p for _, p in m.dist(key).entries))
        assert all(a > b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] == pytest.approx(1 / 11, rel=1e-3)

    def test_null_floor_with_positive_alpha(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        phones = [ph(mm["Q"]), ph(mm["p"]), ph(mm["i"]), ph(mm["n"]), ph(mm["Q"])]
        m = train([phones] * 5, alpha=0.01, alphabet=mini_alphabet)
        for key in m.tables:
            assert m.tables[key].prob(None) > 0.0

    def test_observed_limits(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        phones = [ph(mm["Q"], T=-3), ph(mm["i"], T=7, L=2, V=1), ph(mm["Q"], D=1)]
        m = train([phones], alphabet=mini_alphabet)
        assert m.limits.T == (-3, 7)
        assert m.limits.D == (0, 1)
        assert m.limits.L == (0, 2)
        assert m.limits.V == {0, 1} and m.limits.N == {0}

    def test_empty_corpus(self, mini_alphabet):
        from phonospace.model import TrainingError
        with pytest.raises(TrainingError, match="empty"):
            train([], alphabet=mini_alphabet)

    def test_invalid_string_reports_position(self, mini_alphabet):
        from phonospace.model import TrainingError
        mm = mini_markers(mini_alphabet)
        good = [ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]
        bad = [ph(mm["i"]), ph(mm["Q"]), ph(mm["Q"])]
        with pytest.raises(TrainingError, match="string 2"):
            train([good, bad], alphabet=mini_alphabet)
        m = train([good, bad], alphabet=mini_alphabet, skip_invalid=True)
        assert len(m.tables) > 0

    def test_one_shot_corpus_and_skipped_prosody(self, mini_alphabet, rng):
        corpus = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                  for _ in range(20)]
        mm = mini_markers(mini_alphabet)
        # invalid (no leading closure), and outside every limit the valid strings span
        bad = [ph(mm["i"], R=-64, T=64), ph(mm["Q"], D=64, L=-64), ph(mm["Q"], N=1, V=1)]
        saved = set()
        for model in (train(corpus, alphabet=mini_alphabet),
                      train(iter(corpus[:10] + [bad] + corpus[10:]), alphabet=mini_alphabet,
                            skip_invalid=True)):
            buf = io.StringIO()
            save_model(model, buf)
            saved.add(buf.getvalue())
        assert len(saved) == 1

    def test_mle_dominates_generic_on_training_data(self, mini_alphabet, rng):
        corpus = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                  for _ in range(80)]
        trained = train(corpus, alpha=1e-6, epsilon=0.05, alphabet=mini_alphabet,
                        limits="full")
        baseline = generic_model(mini_alphabet, epsilon=0.05)
        total_t = sum(score(trained, s) for s in corpus)
        total_g = sum(score(baseline, s) for s in corpus)
        assert total_t >= total_g


class TestSampling:
    def test_deterministic_per_seed(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.05)
        assert sample(m, max_syllables=2, seed=7) == sample(m, max_syllables=2, seed=7)
        assert sample(m, max_syllables=2, seed=7) != sample(m, max_syllables=2, seed=8)

    def test_single_syllable_regime(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.05)
        s, parse, scores, classes, plan = parse_and_plan(
            sample(m, max_syllables=1, seed=3), mini_alphabet)
        assert classes == [S]

    def test_zero_epsilon_samples_are_diphthongal(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.0)
        rng = np.random.default_rng(11)
        for _ in range(40):
            s = sample_with_rng(m, 2, rng)
            _s, parse, *_ = parse_and_plan(s, mini_alphabet)
            for syl in parse.syllables:
                onset = [s.phones[i].marker for i in syl.onset_range]
                rhyme = [s.phones[i].marker for i in syl.rhyme_range]
                assert check_diphthongal_syllable(onset, rhyme)

    def test_zero_epsilon_samples_have_finite_scores(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.0)
        rng = np.random.default_rng(23)
        for _ in range(40):
            s = sample_with_rng(m, 2, rng)
            assert math.isfinite(score(m, s))

    def test_legal_sequences(self):
        assert legal_stress_sequences(1) == ((S,),)
        assert set(legal_stress_sequences(2)) == {(S, LTR), (U, S)}
        assert set(legal_stress_sequences(3)) == {
            (S, U, S), (S, LTR, LTR), (U, S, LTR), (U, RTL, S)}

    def test_max_syllables_validated(self, mini_alphabet):
        with pytest.raises(ModelError):
            sample(generic_model(mini_alphabet), max_syllables=0)

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    def test_max_syllables_must_be_an_integer(self, mini_alphabet, bad):
        with pytest.raises(ModelError, match="max_syllables"):
            sample(generic_model(mini_alphabet), max_syllables=bad, seed=1)


class TestLongClassSequences:
    """sha256 of 40 strings drawn with one Pcg64 stream at five or seven syllables.

    Only from four syllables on can a class sequence hold two right-to-left
    middling syllables, so these digests pin the order in which the sampler
    visits them. The digests come from the earlier sampler, which had one
    loop per stress class.
    """

    DIGESTS = {
        ("generic", 5): "21300d4d02abb5416593fc2dc4b2fb2d1462695702183d040ac81b42d810cef0",
        ("generic", 7): "70ef50499b297e45c58afc32c180954e29d129fda2fdc602350b88457e835ed8",
        ("trained", 5): "a75f06b14f77b3c56e480809b4ac4ea16dfeeca0e619671416b7bae168076cc3",
        ("trained", 7): "42a1225e30df670ef353f09524f9a9e019e6502a0c6be3cd9536ae709b1e7570",
    }

    @pytest.mark.parametrize("which,max_syllables", list(DIGESTS))
    def test_sample_bytes(self, mini_alphabet, which, max_syllables):
        import hashlib
        from phonospace import write_corpus
        from phonospace.prng import Pcg64
        if which == "generic":
            model = generic_model(mini_alphabet, epsilon=0.1)
        else:
            rng = np.random.default_rng(60)
            model = train([random_valid_string(rng, mini_alphabet, max_len=14, prosody_span=2)
                           for _ in range(60)], alphabet=mini_alphabet)
        stream = Pcg64(max_syllables)
        buf = io.StringIO()
        write_corpus([sample_with_rng(model, max_syllables, stream) for _ in range(40)], buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == self.DIGESTS[which, max_syllables]


class TestSerialization:
    def test_round_trip_bytes(self, mini_alphabet, rng):
        corpus = [random_valid_string(rng, mini_alphabet, max_len=8, prosody_span=2)
                  for _ in range(30)]
        m = train(corpus, alpha=0.01, alphabet=mini_alphabet)
        buf1 = io.StringIO()
        save_model(m, buf1)
        m2 = load_model(buf1.getvalue(), mini_alphabet)
        buf2 = io.StringIO()
        save_model(m2, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_generic_round_trips_epsilon(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.123456789012345)
        buf = io.StringIO()
        save_model(m, buf)
        m2 = load_model(buf.getvalue(), mini_alphabet)
        assert m2.epsilon == m.epsilon

    def test_unnormalized_rejected(self, mini_alphabet):
        m = generic_model(mini_alphabet, epsilon=0.1)
        buf = io.StringIO()
        save_model(m, buf)
        # one row over a support of the null phone alone, which it gives 0.9
        text = buf.getvalue().replace('"tables":[]', '"tables":[["onset","stressed",[0],[0,"0.9"]]]')
        with pytest.raises(ModelFormatError, match="non-normalized"):
            load_model(text, mini_alphabet)
        legacy = reference_json(m).replace('"tables":[]',
            '"tables":[{"key":{"unit":"onset","stress":"stressed","context":[{"null":true}]},'
            '"dist":[[{"null":true},"0.9"]]}]')
        with pytest.raises(ModelFormatError, match="non-normalized"):
            load_model(legacy, mini_alphabet)

    def test_version_mismatch(self, mini_alphabet, alphabet):
        m = generic_model(mini_alphabet, epsilon=0.1)
        buf = io.StringIO()
        save_model(m, buf)
        with pytest.raises(AlphabetMismatchError):
            load_model(buf.getvalue(), alphabet)

    def test_malformed_json(self, mini_alphabet):
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model("{not json", mini_alphabet)

    def test_unknown_attribute_value_reported_as_such(self, mini_alphabet):
        # UnknownSymbolError is a KeyError; it was reported as a missing field
        import json
        mm = mini_markers(mini_alphabet)
        doc = json.loads(reference_json(
            train([[ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]], alphabet=mini_alphabet)))
        ctx = next(c for t in doc["tables"] for c in t["key"]["context"] if not c.get("null"))
        ctx["m"] = "clossure"
        with pytest.raises(ModelFormatError, match="unknown attribute name 'clossure'") as info:
            load_model(json.dumps(doc), mini_alphabet)
        assert "missing field" not in str(info.value)

    def test_trained_scores_survive_round_trip(self, mini_alphabet, rng):
        corpus = [random_valid_string(rng, mini_alphabet, max_len=8, prosody_span=2)
                  for _ in range(30)]
        m = train(corpus, alpha=0.01, alphabet=mini_alphabet)
        buf = io.StringIO()
        save_model(m, buf)
        m2 = load_model(buf.getvalue(), mini_alphabet)
        for s in corpus[:10]:
            assert score(m, s) == score(m2, s)


def _canonical_floor(entries):
    counts = Counter(p for _, p in entries)
    return min(counts, key=lambda p: (-counts[p], p))


def _sorted_dense(entries):
    return tuple(sorted(entries, key=lambda e: (0,) if e[0] is None else (1,) + e[0].sort_key()))


def _reference_generic(alphabet, key, eps):
    """The dense construction: every cell listed, admissible or not."""
    adm = admissible_targets(alphabet, key)
    cells = list(alphabet)
    excluded = len(cells) - len(adm)
    if excluded > 0:
        p_adm, p_exc = (1.0 - eps) / (len(adm) + 1), eps / excluded
    else:
        p_adm, p_exc = 1.0 / (len(adm) + 1), 0.0
    return [(None, p_adm)] + [(m, p_adm if m in adm else p_exc) for m in cells]


def _some_keys(alphabet):
    cells = list(alphabet)
    picks = [None] + cells[::37]
    for unit in Unit:
        for cls in StressClass:
            for c in picks:
                yield CondKey(unit, cls, (c,))
    for a in picks[:4]:
        for b in picks[-4:]:
            yield CondKey(Unit.NUCLEUS, U, (a, b))


class TestFloorForm:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_generic_round_trips_dense_entries(self, alphabet, eps):
        m = generic_model(alphabet, epsilon=eps)
        for key in _some_keys(alphabet):
            dense = _reference_generic(alphabet, key, eps)
            d = m.generic_dist(key)
            assert d.entries == _sorted_dense(dense)
            rebuilt = CategoricalDist(dense)
            assert rebuilt == d and rebuilt.entries == d.entries
            assert d.floor == _canonical_floor(dense)
            assert len(d.entries) == len(alphabet) + 1
            if eps == 0.0:
                zeros = len(alphabet) - len(admissible_targets(alphabet, key))
                assert sum(1 for _, p in d.entries if p == 0.0) == zeros

    @pytest.mark.parametrize("alpha", [0.0, 0.01])
    def test_trained_round_trips_dense_entries(self, alphabet, alpha):
        rng = np.random.default_rng(4)
        corpus = [random_valid_string(rng, alphabet, max_len=12) for _ in range(25)]
        m = train(corpus, alpha=alpha, alphabet=alphabet)
        counts = {}
        for phones in corpus:
            s, _parse, _scores, _classes, plan = parse_and_plan(phones, alphabet)
            for f in plan.factors:
                key, target = factor_key(s, f)
                counts.setdefault(key, Counter())[target] += 1
        support = [None] + list(alphabet)
        assert set(m.tables) == set(counts)
        for key, c in counts.items():
            denom = sum(c.values()) + alpha * len(support)
            dense = [(t, (c.get(t, 0) + alpha) / denom) for t in support]
            d = m.tables[key]
            assert d.entries == tuple(dense)
            assert CategoricalDist(dense) == d
            assert d.floor == _canonical_floor(dense)

    def test_partial_support(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        dense = [(mm["i"], 0.3), (None, 0.2), (mm["o"], 0.3), (mm["Q"], 0.2)]
        d = CategoricalDist(dense)
        assert d.entries == _sorted_dense(dense)
        assert d.support() == tuple(t for t, _ in _sorted_dense(dense))
        assert d.floor == 0.2  # a tie goes to the smaller value
        assert d.prob(mm["n"]) == 0.0 and d.prob(mm["o"]) == 0.3
        assert CategoricalDist(d.entries) == d
        assert d.sample(np.random.default_rng(0)) in d.support()
        hand = CategoricalDist([(None, 0.1), (mm["i"], 0.9)])
        assert hand.entries == ((None, 0.1), (mm["i"], 0.9))
        assert hand != CategoricalDist([(None, 0.1), (mm["o"], 0.9)])

    def test_hand_built_dists_round_trip(self, mini_alphabet):
        # the dense dists built by hand in the syncope and scoring tests
        support = [None] + list(mini_alphabet)
        rest = support[1:]
        built = [[(None, 0.1)] + [(t, 0.9 / len(rest)) for t in rest]]
        for target in support:
            others = [t for t in support if t != target]
            built.append([(target, 0.5)] + [(t, 0.5 / len(others)) for t in others])
        for dense in built:
            d = CategoricalDist(dense)
            assert d.entries == _sorted_dense(dense)
            assert CategoricalDist(d.entries) == d
            assert all(d.prob(t) == p for t, p in dense)
            assert d.floor == _canonical_floor(dense) and len(d.exceptions) == 1

    def test_exceptions_and_floor_equal_dense_form(self, mini_alphabet):
        dense = CategoricalDist([(None, 0.5)] + [(t, 0.05) for t in mini_alphabet])
        uniform = generic_model(mini_alphabet, epsilon=0.5).dist(
            CondKey(Unit.NUCLEUS, S, (None,)))
        sparse = uniform.rebuilt({None: 0.5}, 0.05)
        assert sparse == dense and sparse.entries == dense.entries
        assert sparse.exceptions == {None: 0.5} and sparse.floor == 0.05
        with pytest.raises(ModelFormatError, match="non-normalized"):
            uniform.rebuilt({None: 0.5}, 0.06)
        with pytest.raises(ModelFormatError, match="negative"):
            uniform.rebuilt({None: 1.5}, -0.05)

    def test_seeded_draws_follow_the_dense_walk(self, alphabet):
        m = generic_model(alphabet, epsilon=0.05)
        for key in list(_some_keys(alphabet))[:20]:
            dense = CategoricalDist(_reference_generic(alphabet, key, 0.05))
            a, b = np.random.default_rng(3), np.random.default_rng(3)
            assert [m.dist(key).sample(a) for _ in range(30)] == \
                [dense.sample(b) for _ in range(30)]

    def test_index_survives_alphabet_turnover(self, mini_alphabet):
        # ids of collected alphabets are reused; the index must not be
        import gc
        from importlib import resources
        from conftest import MINI_TABLE
        from phonospace import load_alphabet
        full_table = resources.files("phonospace.data").joinpath("alphabet.tsv").read_text("utf-8")
        i = mini_markers(mini_alphabet)["i"]
        for n in range(200):
            alphabet = load_alphabet(MINI_TABLE if n % 2 else full_table)
            d = generic_model(alphabet, epsilon=0.05).generic_dist(CondKey(Unit.RHYME, S, (i,)))
            assert len(d.entries) == len(alphabet) + 1
            del alphabet, d
            gc.collect()


class TestFormatV2:
    """The version-2 reader, fed by the test-side writer of that format, and probability rows."""

    def test_entries_list_exceptions_with_a_floor(self, alphabet, rng):
        import json
        corpus = [random_valid_string(rng, alphabet, max_len=10) for _ in range(10)]
        m = train(corpus, alpha=0.01, alphabet=alphabet)
        text = reference_json(m)
        doc = json.loads(text)
        assert doc["format"] == "phonospace-model-2"
        for entry in doc["tables"]:
            assert set(entry) == {"key", "dist", "floor"}
            assert len(entry["dist"]) < len(alphabet) // 2
        assert load_model(text, alphabet).tables == m.tables

    def test_partial_support_saved_dense(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        d = CategoricalDist([(None, 0.25), (mm["n"], 0.75)])
        m = LanguageModel(alphabet=mini_alphabet, tables={key: d}, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
        buf = io.StringIO()
        save_model(m, buf)
        # a row without a floor, listing the null phone and n by their positions
        from phonospace.model import _index_for
        pos = _index_for(mini_alphabet).positions
        row = f'["rhyme","stressed",[{pos[mm["i"]]}],[0,"0.25",{pos[mm["n"]]},"0.75"]]'
        assert f'"rows":"probabilities","tables":[{row}]' in buf.getvalue()
        loaded = load_model(buf.getvalue(), mini_alphabet).tables[key]
        assert loaded == d and loaded.support() == d.support()

    def test_flipped_floors_byte_stable(self, alphabet):
        # generic dists whose admissible set is the majority keep p_adm as floor
        g = generic_model(alphabet, epsilon=0.05)
        tables = {key: g.generic_dist(key) for key in _some_keys(alphabet)}
        assert any(d.floor == d.prob(None) for d in tables.values())
        m = LanguageModel(alphabet=alphabet, tables=tables, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
        buf1, buf2 = io.StringIO(), io.StringIO()
        save_model(m, buf1)
        m2 = load_model(buf1.getvalue(), alphabet)
        save_model(m2, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert m2.tables == tables

    def test_version_one_fixture_loads_equal(self, mini_alphabet):
        # saved by the dense implementation: 8 strings, seed 2, alpha 0.01
        from pathlib import Path
        path = Path(__file__).parent / "data" / "mini_model_v1.json"
        assert '"format":"phonospace-model-1"' in path.read_text()
        old = load_model(str(path), mini_alphabet)
        rng = np.random.default_rng(2)
        corpus = [random_valid_string(rng, mini_alphabet, max_len=8, prosody_span=2)
                  for _ in range(8)]
        now = train(corpus, alpha=0.01, epsilon=0.05, alphabet=mini_alphabet)
        assert old.tables.keys() == now.tables.keys()
        for key, d in now.tables.items():
            assert old.tables[key] == d and old.tables[key].entries == d.entries
        assert old.limits == now.limits
        buf = io.StringIO()
        save_model(old, buf)
        assert load_model(buf.getvalue(), mini_alphabet).tables == now.tables

    def test_bad_floor_rejected(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        m = train([[ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]], alpha=0.01, alphabet=mini_alphabet)
        text = reference_json(m)
        floor = m.tables[next(iter(m.tables))].floor
        with pytest.raises(ModelFormatError, match="negative"):
            load_model(text.replace(f'"floor":"{floor!r}"', f'"floor":"{-floor!r}"', 1),
                       mini_alphabet)
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(text.replace(f'"floor":"{floor!r}"', '"floor":"x"', 1), mini_alphabet)
        with pytest.raises(ModelFormatError, match="unknown model format"):
            load_model(text.replace("phonospace-model-2", "phonospace-model-0"), mini_alphabet)


class TestAdmissibilityRows:
    @pytest.mark.parametrize("which", ["alphabet", "mini_alphabet"])
    def test_rows_equal_the_predicate(self, which, request, alphabet):
        from phonospace.model import _AdmissibilityIndex
        index = _AdmissibilityIndex(request.getfixturevalue(which))
        # contexts range over every default cell, so the mini index also
        # answers for markers outside its own alphabet
        for ctx in alphabet:
            assert set(index.members(index.away_row(ctx))) == {t for t in index.cells if is_diphthongal_step(ctx, t)}
            assert set(index.members(index.toward_row(ctx))) == {t for t in index.cells if is_diphthongal_step(t, ctx)}


class TestGenericFromThePredicate:
    """The generic law of each kind of key, its row read from ``is_diphthongal_step`` alone."""

    @staticmethod
    def dense(cells, key, eps, away):
        contexts = [c for c in key.context if c is not None]
        if away:  # the target sits one step farther from the nucleus than the context
            row = {t for t in cells if all(is_diphthongal_step(c, t) for c in contexts)}
        else:
            row = {t for t in cells if all(is_diphthongal_step(t, c) for c in contexts)}
        excluded = len(cells) - len(row)
        p_adm = (1.0 - eps if excluded else 1.0) / (len(row) + 1)
        p_exc = eps / excluded if excluded else 0.0
        return ((None, p_adm), *((t, p_adm if t in row else p_exc) for t in cells)), len(row)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("which", ["alphabet", "mini_alphabet"])
    def test_entries_and_floor(self, which, eps, request):
        alphabet = request.getfixturevalue(which)
        cells = sorted(alphabet, key=lambda m: m.sort_key())  # canonical order, after the null phone
        # a stressed syllable's sides grow away from its nucleus, an unstressed one's toward it
        keys = [(CondKey(Unit.ONSET, S, (None,)), True)]
        keys += [(CondKey(Unit.RHYME, S, (c,)), True) for c in cells]
        keys += [(CondKey(Unit.ONSET, U, (c,)), False) for c in cells]
        keys += [(CondKey(Unit.NUCLEUS, U, (a, b)), False)
                 for a in cells[::23] + [None] for b in cells[4::29] + [None]]
        m = generic_model(alphabet, epsilon=eps)
        over_half = 0
        for key, away in keys:
            dense, admitted = self.dense(cells, key, eps, away)
            d = m.generic_dist(key)
            assert d.entries == dense, key
            assert d.floor == _canonical_floor(dense), key
            over_half += key.context != (None,) and 2 * admitted > len(cells)
        assert over_half  # a context whose row holds more than half the cells


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_dist_with_non_finite_mass_rejected(self, mini_alphabet, bad):
        from phonospace.model import Support
        mm = mini_markers(mini_alphabet)
        with pytest.raises(ModelFormatError, match="non-normalized"):
            CategoricalDist([(None, 0.5), (mm["i"], bad)])
        with pytest.raises(ModelFormatError, match="non-normalized"):
            CategoricalDist({}, Support([None, mm["i"]]), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_train_rejects_non_finite_alpha(self, mini_alphabet, bad):
        mm = mini_markers(mini_alphabet)
        with pytest.raises(ModelError, match="alpha"):
            train([[ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]], alpha=bad, alphabet=mini_alphabet)

    def test_load_rejects_nan(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        m = train([[ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]], alpha=0.01, alphabet=mini_alphabet)
        buf = io.StringIO()
        save_model(m, buf)
        floor = m.tables[next(iter(m.tables))].floor
        legacy = reference_json(m)  # a trained model's floors are written only by formats 1-3
        cases = [(text, text.replace('"alpha":"0.01"', f'"alpha":"{value}"'))
                 for text in (buf.getvalue(), legacy) for value in ("nan", "inf")]
        cases.append((legacy, legacy.replace(f'"floor":"{floor!r}"', '"floor":"nan"', 1)))
        for text, bad in cases:
            assert bad != text
            with pytest.raises(ModelFormatError):
                load_model(bad, mini_alphabet)

    def test_load_rejects_non_finite_limits(self, mini_alphabet):
        # json.loads reads the NaN literal; NaN limits made every score -inf
        import json
        m = generic_model(mini_alphabet)
        buf = io.StringIO()
        save_model(m, buf)
        doc = json.loads(buf.getvalue())
        doc["limits"]["R"][0] = math.nan
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_model(json.dumps(doc), mini_alphabet)

    def test_stress_weights_must_be_finite(self):
        from phonospace import StressWeights
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                StressWeights(w_t=bad)

    @pytest.mark.parametrize("field", ["w_d", "w_l", "w_t", "w_count"])
    @pytest.mark.parametrize("bad,message", [
        ("2", "must be an int or a float"), (True, "must be an int or a float"),
        (10**400, "must be finite"), (-1, "must be finite")], ids=["str", "bool", "huge", "negative"])
    def test_stress_weights_rejected_naming_the_field(self, field, bad, message):
        from phonospace import StressWeights
        with pytest.raises(ValueError, match=f"^field '{field}' {message}"):
            StressWeights(**{field: bad})

    def test_integer_stress_weights_accepted(self):
        from phonospace import StressWeights
        assert StressWeights(w_d=2, w_count=0) == StressWeights(w_d=2.0, w_count=0.0)


class TestIntegerLimits:
    @pytest.mark.parametrize("bad", [-64.5, True, "-64"])
    def test_interval_bounds_must_be_integers(self, bad):
        with pytest.raises(ValueError, match="non-integer"):
            ProsodicLimits(R=(bad, 64))

    @pytest.mark.parametrize("bad", [[1.0], [True], [0, "1"]])
    def test_bit_sets_must_hold_integers(self, bad):
        with pytest.raises(ValueError, match="subset"):
            ProsodicLimits(N=frozenset(bad))

    def test_load_rejects_fractional_bound(self, mini_alphabet):
        # "R":[-64.5,64] used to load and count 129.5 values per phone
        import json
        buf = io.StringIO()
        save_model(generic_model(mini_alphabet), buf)
        doc = json.loads(buf.getvalue())
        doc["limits"]["R"] = [-64.5, 64]
        with pytest.raises(ModelFormatError, match="non-integer"):
            load_model(json.dumps(doc), mini_alphabet)


class TestQuantizationChecks:
    @pytest.mark.parametrize("name,bad", [
        ("units_per_octave_d", 12.7), ("units_per_octave_t", True), ("max_abs_units", "64"),
        ("units_per_octave_d", 0), ("units_per_decade_l", -2), ("max_abs_units", -3),
        ("max_abs_units", 65), ("reference_pitch_hz", math.inf),
        ("reference_duration_sec", math.nan)])
    def test_config_rejects(self, name, bad):
        from phonospace import QuantizationConfig
        with pytest.raises(ValueError, match=name):
            QuantizationConfig(**{name: bad})

    def test_range_ends_accepted(self):
        from phonospace import QuantizationConfig
        QuantizationConfig(units_per_octave_d=1, units_per_nat_r=1, max_abs_units=1)
        QuantizationConfig(max_abs_units=64, reference_pitch_hz=1e-300)

    # as they would appear in a model file: each used to load, or to crash scoring
    @pytest.mark.parametrize("name,bad", [
        ("units_per_octave_d", 12.7), ("max_abs_units", "64"), ("units_per_octave_d", 0),
        ("max_abs_units", -3), ("reference_pitch_hz", "inf")])
    def test_load_rejects(self, mini_alphabet, name, bad):
        import json
        buf = io.StringIO()
        save_model(generic_model(mini_alphabet), buf)
        doc = json.loads(buf.getvalue())
        doc["quantization"][name] = bad
        with pytest.raises(ModelFormatError, match=name):
            load_model(json.dumps(doc), mini_alphabet)


class TestDistMemo:
    BOUND = 8192

    def test_least_recently_used_key_is_rebuilt(self, mini_alphabet):
        model = generic_model(mini_alphabet)
        built = []
        real = model.generic_dist
        model.generic_dist = lambda key: built.append(key) or real(key)
        targets = [None] + list(mini_alphabet)
        keys = [CondKey(unit, cls, (a, b, c)) for unit in Unit for cls in StressClass
                for a in targets for b in targets for c in targets][:self.BOUND + 1]
        first, touched = keys[0], keys[1]
        for key in keys[:self.BOUND]:
            model.dist(key)
        kept = model.dist(touched)  # now the most recently used
        model.dist(keys[self.BOUND])  # one key over the bound
        assert len(built) == self.BOUND + 1
        built.clear()
        assert model.dist(touched) is kept
        assert built == []
        model.dist(first)
        assert built == [first]

    def test_varied_model_builds_its_own_dists(self, mini_alphabet):
        from phonospace import Regime, TransformKind, TransformSpec, apply
        from phonospace.variation import AppliedTransform
        mm = mini_markers(mini_alphabet)
        model = generic_model(mini_alphabet)
        key = CondKey(Unit.NUCLEUS, U, (mm["Q"], mm["Q"]))
        memoized = model.dist(key)
        spec, regime = TransformSpec(TransformKind.SYNCOPE, 1.0), Regime(rate=3.0)
        varied = apply(model, regime, spec)
        got = varied.dist(key)
        assert got is not memoized and got != memoized
        assert got == AppliedTransform(spec, regime).apply(model, key, memoized)
        assert model.dist(key) is memoized
        assert apply(varied, regime, spec).dist(key) != got


class TestInputKinds:
    """score and train read a PhoneString, a list or a one-shot iterator alike."""

    KINDS = [lambda s: PhoneString(tuple(s)), list, iter]

    def test_score(self, mini_alphabet, rng):
        model = generic_model(mini_alphabet)
        for _ in range(10):
            s = random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
            assert len({score(model, kind(s)) for kind in self.KINDS}) == 1
        mm = mini_markers(mini_alphabet)
        for kind in self.KINDS:
            with pytest.raises(InvalidPhoneString):
                score(model, kind([ph(mm["i"]), ph(mm["Q"]), ph(mm["Q"])]))

    def test_train(self, mini_alphabet, rng):
        strings = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                   for _ in range(20)]
        saved = set()
        for kind in self.KINDS:
            buf = io.StringIO()
            save_model(train([kind(s) for s in strings], alphabet=mini_alphabet), buf)
            saved.add(buf.getvalue())
        assert len(saved) == 1


class TestLegalSequenceTable:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_strict_ranking_once_in_declaration_order(self, k):
        seqs = legal_stress_sequences(k)
        ranked = {tuple(classify_stress([None] * k, list(r))) for r in itertools.permutations(range(k))}
        assert set(seqs) == ranked
        assert len(seqs) == 2 ** (k - 1)
        # the sampler picks a sequence by index, so this order fixes the sampled bytes
        order = list(StressClass)
        assert list(seqs) == sorted(seqs, key=lambda q: [order.index(c) for c in q])


class TestKeyTypes:
    def test_every_phonospace_enum_hashes_by_identity(self):
        import enum
        import importlib
        import pkgutil
        import phonospace
        found = {}
        for info in pkgutil.iter_modules(phonospace.__path__):
            mod = importlib.import_module(f"phonospace.{info.name}")
            for obj in vars(mod).values():
                if (isinstance(obj, type) and issubclass(obj, enum.Enum)
                        and obj.__module__.startswith("phonospace")):
                    found[obj.__name__] = obj
        assert {"Manner", "FrontBack", "OpenClose", "Place", "PartialOrdering", "SonorityRelation",
                "StressClass", "Unit", "TransformKind"} <= found.keys()
        for cls in found.values():
            assert cls.__hash__ is object.__hash__, cls
            for member in cls:
                assert hash(member) == object.__hash__(member)

    def test_cond_key_is_its_tuple(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        for unit, cls, ctx in [(Unit.RHYME, S, (mm["i"],)), (Unit.NUCLEUS, U, (None, mm["Q"])),
                               (Unit.ONSET, LTR, (None,))]:
            key = CondKey(unit, cls, ctx)
            assert key == (unit, cls, ctx)
            assert hash(key) == hash((unit, cls, ctx))
            assert {key: 1}[(unit, cls, ctx)] == 1


class TestSharedGenericLaw:
    def test_keys_with_one_row_share_one_dist(self, alphabet):
        m = generic_model(alphabet, 0.05)
        onset, rhyme = CondKey(Unit.ONSET, S, (None,)), CondKey(Unit.RHYME, U, (None,))
        assert admissible_targets(alphabet, onset) == admissible_targets(alphabet, rhyme)
        assert m.generic_dist(onset) is m.generic_dist(rhyme)
        assert m.dist(onset) is m.dist(rhyme)

    def test_models_with_one_epsilon_share_one_dist(self, alphabet):
        key = CondKey(Unit.RHYME, S, (list(alphabet)[40],))
        first, second = generic_model(alphabet, 0.05), generic_model(alphabet, 0.05)
        assert first.generic_dist(key) is second.generic_dist(key)

    def test_other_epsilon_or_row_gets_its_own_dist(self, alphabet):
        null = CondKey(Unit.ONSET, S, (None,))
        from phonospace import Manner
        closure = CondKey(Unit.ONSET, S, (next(m for m in alphabet if m.manner is Manner.CLOSURE),))
        assert admissible_targets(alphabet, null) != admissible_targets(alphabet, closure)
        m = generic_model(alphabet, 0.05)
        assert m.generic_dist(null) is not m.generic_dist(closure)
        other = generic_model(alphabet, 0.1).generic_dist(closure)
        assert other is not m.generic_dist(closure) and other != m.generic_dist(closure)


class TestModelRangeChecks:
    @pytest.mark.parametrize("eps", [1.5, 1.0, -0.1, math.nan])
    def test_constructor_rejects_epsilon(self, mini_alphabet, eps):
        with pytest.raises(ModelError, match="epsilon"):
            LanguageModel(mini_alphabet, {}, eps, 0.0, ProsodicLimits())
        with pytest.raises(ModelError, match="epsilon"):
            dataclasses.replace(generic_model(mini_alphabet), epsilon=eps)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
    def test_constructor_rejects_alpha(self, mini_alphabet, alpha):
        with pytest.raises(ModelError, match="alpha"):
            LanguageModel(mini_alphabet, {}, 0.05, alpha, ProsodicLimits())
        with pytest.raises(ModelError, match="alpha"):
            dataclasses.replace(generic_model(mini_alphabet), alpha=alpha)

    @pytest.mark.parametrize("name,bad,message", [
        ("epsilon", "1.5", "joining mass"), ("epsilon", "nan", "joining mass"),
        ("alpha", "-0.5", "alpha must be finite")])
    def test_load_names_the_bad_value(self, mini_alphabet, name, bad, message):
        import json
        buf = io.StringIO()
        save_model(generic_model(mini_alphabet), buf)
        doc = json.loads(buf.getvalue())
        doc[name] = bad
        with pytest.raises(ModelFormatError, match=message):
            load_model(json.dumps(doc), mini_alphabet)


def _reference_draw(limits, rng):
    """One prosodic vector, drawn field by field as the sampler has always drawn it."""
    def iv(name):
        lo, hi = getattr(limits, name)
        return int(rng.integers(lo, hi + 1))

    def bit(name):
        allowed = sorted(getattr(limits, name))
        return allowed[int(rng.integers(len(allowed)))]

    return ProsodicVector(R=iv("R"), N=bit("N"), V=bit("V"), T=iv("T"), D=iv("D"), L=iv("L"))


def _reference_contains(limits, pv):
    """Membership by the explicit per-field comparison."""
    return (limits.R[0] <= pv.R <= limits.R[1] and limits.T[0] <= pv.T <= limits.T[1]
            and limits.D[0] <= pv.D <= limits.D[1] and limits.L[0] <= pv.L <= limits.L[1]
            and pv.N in limits.N and pv.V in limits.V)


def _reference_log_mass(limits):
    out = 0.0
    for name in ("R", "T", "D", "L"):
        lo, hi = getattr(limits, name)
        out -= math.log(hi - lo + 1)
    out -= math.log(len(limits.N))
    out -= math.log(len(limits.V))
    return out


_LIMITS = [
    ProsodicLimits.full(64),
    ProsodicLimits(R=(-2, 3), T=(0, 1), D=(-64, -60), L=(60, 64), N=frozenset({1})),
    ProsodicLimits(R=(5, 5), T=(-64, -64), D=(0, 0), L=(64, 64),
                   N=frozenset({0}), V=frozenset({1})),
]


class TestProsodicLimitsLaw:
    @pytest.mark.parametrize("limits", _LIMITS)
    @pytest.mark.parametrize("make_rng", [Pcg64, np.random.default_rng], ids=["pcg64", "numpy"])
    def test_draw_matches_reference(self, limits, make_rng):
        ours, ref = make_rng(29), make_rng(29)
        for _ in range(300):
            pv = limits.draw(ours)
            assert pv == _reference_draw(limits, ref) and limits.contains(pv)
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("limits", _LIMITS)
    def test_contains_matches_reference(self, limits):
        inside = {name: getattr(limits, name)[0] for name in ("R", "T", "D", "L")}
        inside.update(N=min(limits.N), V=min(limits.V))
        vectors = []
        for name in ("R", "T", "D", "L"):  # each bound and one past it
            lo, hi = getattr(limits, name)
            vectors += [ProsodicVector(**{**inside, name: v})
                        for v in (lo - 1, lo, hi, hi + 1) if abs(v) <= 64]
        vectors += [ProsodicVector(**{**inside, name: b}) for name in ("N", "V") for b in (0, 1)]
        rng = np.random.default_rng(41)
        for _ in range(1000):  # random vectors within two of each interval
            near = {"N": int(rng.integers(2)), "V": int(rng.integers(2))}
            for name in ("R", "T", "D", "L"):
                lo, hi = getattr(limits, name)
                near[name] = int(np.clip(rng.integers(lo - 2, hi + 3), -64, 64))
            vectors.append(ProsodicVector(**near))
        verdicts = [limits.contains(pv) for pv in vectors]
        assert verdicts == [_reference_contains(limits, pv) for pv in vectors]
        assert any(verdicts)

    @pytest.mark.parametrize("limits", _LIMITS)
    def test_log_mass_matches_reference(self, limits):
        assert limits.log_mass() == _reference_log_mass(limits)

    @pytest.mark.parametrize("limits", _LIMITS)
    def test_json_round_trip(self, limits):
        doc = limits.to_json()
        assert list(doc) == ["R", "T", "D", "L", "N", "V"]
        assert ProsodicLimits.from_json(doc) == limits

    def test_observed_bounds_every_vector(self):
        pvs = [ProsodicVector(R=2, T=-3), ProsodicVector(D=5, L=-1, N=1), ProsodicVector(R=-4)]
        assert ProsodicLimits.observed(pvs) == ProsodicLimits(
            R=(-4, 2), T=(-3, 0), D=(0, 5), L=(-1, 0), N=frozenset({0, 1}), V=frozenset({0}))

    def test_observed_reads_a_one_shot_iterator(self):
        rng = np.random.default_rng(17)
        pvs = [random_prosody(rng) for _ in range(60)]
        assert ProsodicLimits.observed(pv for pv in pvs) == ProsodicLimits.observed(pvs)
        with pytest.raises(ValueError):
            ProsodicLimits.observed(iter(()))

    def test_observed_bit_seen_only_at_one(self):
        limits = ProsodicLimits.observed([ProsodicVector(N=1, T=2), ProsodicVector(N=1, V=1)])
        assert limits.N == frozenset({1}) and limits.V == frozenset({0, 1})


class TestTrainingMemory:
    """train holds the counts per key and nothing per phone or per string."""

    def test_peak_does_not_grow_with_repeats(self, mini_alphabet):
        rng = np.random.default_rng(23)
        shapes = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=4)
                  for _ in range(40)]

        def corpus(repeats):  # fresh objects per string, as read_corpus builds them
            for _ in range(repeats):
                for s in shapes:
                    yield [Phone(p.marker, ProsodicVector(**vars(p.prosody))) for p in s]

        def peak(repeats):  # bytes the run adds at its peak to what was traced before it
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train(corpus(repeats), alphabet=mini_alphabet)
            return tracemalloc.get_traced_memory()[1] - before

        # The first run is traced too, so the blocks the interpreter keeps on its free
        # lists for reuse are counted before the measured runs, not during them. A
        # collection would empty those lists (or free an earlier run's model while a
        # later run is traced), so none runs until the end.
        gc.disable()
        tracemalloc.start()
        try:
            peak(10)
            once, tenfold = peak(1), peak(10)
        finally:
            tracemalloc.stop()
            gc.enable()
        # holding one fresh ProsodicVector per phone costs about 200 B a phone; the free
        # lists, which fill slowly over a run, took at most 6 B per extra phone on
        # CPython 3.11 over eight corpus seeds
        extra_phones = 9 * sum(map(len, shapes))
        assert tenfold - once < 32 * extra_phones, (once, tenfold, extra_phones)


class TestModelLifetime:
    def test_dropped_model_is_freed_without_the_cyclic_collector(self, mini_alphabet):
        import weakref
        rng = np.random.default_rng(5)
        corpus = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                  for _ in range(3)]
        gc.collect()
        gc.disable()
        try:
            model = train(corpus, alphabet=mini_alphabet)
            for key in list(model.tables)[:5]:
                model.dist(key)
            score(model, corpus[0])  # fallback keys too
            dropped = weakref.ref(model)
            del model
            assert dropped() is None
        finally:
            gc.enable()


class TestLimitsPolicy:
    def test_unknown_policy_rejected_before_reading(self, mini_alphabet):
        rng = np.random.default_rng(6)
        strings = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                   for _ in range(3)]
        read = []

        def corpus():
            for s in strings:
                read.append(s)
                yield s

        with pytest.raises(ModelError, match="unknown limits policy 'bogus'"):
            train(corpus(), alphabet=mini_alphabet, limits="bogus")
        assert read == []

    @pytest.mark.parametrize("policy", ["observed", "full", ProsodicLimits.full(3)])
    def test_known_policies_still_train(self, mini_alphabet, policy):
        rng = np.random.default_rng(6)
        corpus = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                  for _ in range(3)]
        model = train(corpus, alphabet=mini_alphabet, limits=policy)
        collapsed = [parse_and_plan(s, mini_alphabet)[0] for s in corpus]
        expected = {"observed": ProsodicLimits.observed(p.prosody for s in collapsed for p in s.phones),
                    "full": ProsodicLimits.full()}.get(policy, policy)
        assert model.limits == expected


class TestLimitsWithinTheVectorRange:
    """Every value the limits allow is one a ProsodicVector may hold."""

    @pytest.mark.parametrize("name", ["R", "T", "D", "L"])
    @pytest.mark.parametrize("interval", [(-100, 100), (-65, 0), (0, 65), (-70, -65), (65, 70)])
    def test_bound_outside_rejected(self, name, interval):
        with pytest.raises(ValueError, match=rf"^{name} interval bound -?\d+ outside \[-64, 64\]$"):
            ProsodicLimits(**{name: interval})

    def test_full_beyond_the_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ProsodicLimits.full(65)
        assert ProsodicLimits.full(64) == ProsodicLimits()

    def test_load_reports_a_format_error(self, mini_alphabet):
        # "R":[-100,100] used to load, score log(1/201) per phone and fail when sampled
        import json
        buf = io.StringIO()
        save_model(generic_model(mini_alphabet), buf)
        doc = json.loads(buf.getvalue())
        doc["limits"]["R"] = [-100, 100]
        with pytest.raises(ModelFormatError, match="outside"):
            load_model(json.dumps(doc), mini_alphabet)

    @pytest.mark.parametrize("limits", _LIMITS + [
        ProsodicLimits(R=(-64, -64), T=(64, 64), D=(-64, 64), L=(-1, 0), V=frozenset({1}))])
    @pytest.mark.parametrize("make_rng", [Pcg64, np.random.default_rng], ids=["pcg64", "numpy"])
    def test_drawn_vectors_are_vectors(self, limits, make_rng):
        rng = make_rng(13)
        names = [f.name for f in dataclasses.fields(ProsodicVector)]
        for _ in range(300):
            pv = limits.draw(rng)
            checked = ProsodicVector(**vars(pv))  # runs the field checks
            assert list(vars(pv)) == names and all(type(v) is int for v in vars(pv).values())
            assert pv == checked and hash(pv) == hash(checked) and limits.contains(pv)


class TestTableCells:
    """A model's tables name only cells of its alphabet and the null phone."""

    @staticmethod
    def stranger(mini_alphabet, alphabet):
        return next(m for m in alphabet if m not in mini_alphabet)

    def test_target_outside_the_alphabet_rejected(self, mini_alphabet, alphabet):
        stranger = self.stranger(mini_alphabet, alphabet)
        d = CategoricalDist([(None, 0.5), (stranger, 0.5)])
        key = CondKey(Unit.ONSET, S, (None,))
        with pytest.raises(ModelError, match=re.escape(f"names {stranger!r}, not a cell")):
            LanguageModel(mini_alphabet, {key: d}, 0.05, 0.0, ProsodicLimits())

    def test_context_outside_the_alphabet_rejected(self, mini_alphabet, alphabet):
        stranger = self.stranger(mini_alphabet, alphabet)
        mm = mini_markers(mini_alphabet)
        m = train([[ph(mm["Q"]), ph(mm["i"]), ph(mm["Q"])]], alphabet=mini_alphabet)
        key, d = next(iter(m.tables.items()))
        bad = {key._replace(context=(stranger,) * len(key.context)): d}
        with pytest.raises(ModelError, match=re.escape(f"names {stranger!r}, not a cell")):
            LanguageModel(mini_alphabet, bad, 0.05, 0.0, ProsodicLimits())
        with pytest.raises(ModelError, match="not a cell"):
            dataclasses.replace(m, tables={**m.tables, **bad})

    def test_cells_and_partial_supports_accepted(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        key = CondKey(Unit.ONSET, S, (mm["i"],))
        m = LanguageModel(mini_alphabet, {key: CategoricalDist([(None, 0.5), (mm["Q"], 0.5)])},
                          0.05, 0.0, ProsodicLimits())
        assert load_model(model_to_json(m), mini_alphabet).tables == m.tables


def _seeded_dists(alphabet, seed, n=12):
    """Floor-plus-exceptions dists over the full support, some with a zero floor."""
    base = generic_model(alphabet).dist(CondKey(Unit.ONSET, S, (None,)))
    targets = base.support()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(1, 40))
        picked = rng.choice(len(targets), size=k, replace=False)
        weights = rng.random(k) * float(rng.choice([1e-3, 1.0, 50.0]))
        floor = float(rng.random()) * float(rng.choice([0.0, 1e-6, 1.0]))
        total = float(weights.sum()) + floor * (len(targets) - k)
        yield base.rebuilt({targets[i]: float(w) / total for i, w in zip(picked, weights)},
                           floor / total)


class _Scripted:
    """An rng whose ``random()`` returns the given values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestSamplingTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_boundaries_pick_what_a_list_table_picked(self, alphabet, seed):
        m = generic_model(alphabet, epsilon=0.05)
        dists = list(_seeded_dists(alphabet, seed)) + [m.dist(k) for k in list(_some_keys(alphabet))[:8]]
        for d in dists:
            targets = d.support()
            # the table as a list of Python floats, summed left to right over the dense entries
            ref = list(itertools.accumulate(d.exceptions.get(t, d.floor) for t in targets))
            probes = [0.0]
            for c in ref:  # each boundary exactly, and the doubles on either side of it
                probes += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
            rng = _Scripted(probes)
            assert [d.sample(rng) for _ in probes] == \
                [targets[min(bisect.bisect_right(ref, u), len(targets) - 1)] for u in probes]


class TestSamplingMemory:
    def test_generic_samples_leave_little_live(self):
        # a fresh alphabet, so its index, rows, dists and sampling tables are built while traced;
        # 200 strings left 10.3 MB live with one list of boxed floats per table
        from importlib import resources
        from phonospace import load_alphabet
        table = resources.files("phonospace.data").joinpath("alphabet.tsv").read_text("utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = generic_model(load_alphabet(table), epsilon=0.05)
            rng = Pcg64(3000)
            strings = [sample_with_rng(model, 3, rng) for _ in range(200)]
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(strings) == 200
        assert live < 8_000_000, live

    def test_generic_rows_leave_less_live(self):
        # the same scenario; with one frozenset per admissibility row and per
        # two-context intersection, 200 strings left 6.90 MB live
        from importlib import resources
        from phonospace import load_alphabet
        table = resources.files("phonospace.data").joinpath("alphabet.tsv").read_text("utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = generic_model(load_alphabet(table), epsilon=0.05)
            rng = Pcg64(3000)
            strings = [sample_with_rng(model, 3, rng) for _ in range(200)]
            gc.collect()
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(strings) == 200
        assert live < 5_000_000, live


class TestNumbersStoredAsFloats:
    """epsilon, alpha and the quantization references are stored as floats.

    So a model the library builds saves to a file that loads and re-saves
    byte for byte, and a number of any other type is refused where it is given.
    """

    @staticmethod
    def saved(model):
        buf = io.StringIO()
        save_model(model, buf)
        return buf.getvalue()

    @staticmethod
    def corpus(alphabet):
        rng = np.random.default_rng(5)
        return [random_valid_string(rng, alphabet, max_len=9, prosody_span=2) for _ in range(10)]

    @staticmethod
    def unread():
        raise AssertionError("the corpus was read")
        yield

    @pytest.mark.parametrize("epsilon", [0, np.float64(0.05)], ids=["int", "numpy"])
    def test_generic_resaves_byte_for_byte(self, mini_alphabet, epsilon):
        text = self.saved(generic_model(mini_alphabet, epsilon=epsilon))
        assert self.saved(load_model(text, mini_alphabet)) == text

    def test_trained_resaves_byte_for_byte(self, mini_alphabet):
        text = self.saved(train(self.corpus(mini_alphabet), alpha=1, epsilon=0, alphabet=mini_alphabet))
        assert '"alpha":"1.0"' in text and '"epsilon":"0.0"' in text
        assert self.saved(load_model(text, mini_alphabet)) == text

    @pytest.mark.parametrize("name", ["reference_duration_sec", "reference_pitch_hz", "reference_loudness"])
    def test_integer_reference_resaves_byte_for_byte(self, mini_alphabet, name):
        from phonospace import QuantizationConfig
        config = QuantizationConfig(**{name: 100})
        assert type(getattr(config, name)) is float and getattr(config, name) == 100.0
        text = self.saved(generic_model(mini_alphabet, quantization=config))
        assert self.saved(load_model(text, mini_alphabet)) == text

    @pytest.mark.parametrize("bad", [False, True, Fraction(1, 20), Decimal("0.05"), "0.1", None])
    def test_epsilon_type_rejected(self, mini_alphabet, bad):
        with pytest.raises(ModelError, match="'epsilon' must be an int or a float"):
            generic_model(mini_alphabet, epsilon=bad)
        with pytest.raises(ModelError, match="epsilon"):
            dataclasses.replace(generic_model(mini_alphabet), epsilon=bad)

    @pytest.mark.parametrize("bad,message", [
        (Fraction(1, 100), "'alpha' must be an int or a float"), ("0.1", "'alpha' must be an int or a float"),
        (True, "'alpha' must be an int or a float"), (10**400, "alpha must be finite")],
        ids=["fraction", "string", "bool", "huge-int"])
    def test_alpha_rejected_before_the_corpus_is_read(self, mini_alphabet, bad, message):
        with pytest.raises(ModelError, match=message):
            train(self.unread(), alpha=bad, alphabet=mini_alphabet)
        with pytest.raises(ModelError, match=message):
            dataclasses.replace(generic_model(mini_alphabet), alpha=bad)

    @pytest.mark.parametrize("bad", [Fraction(1, 20), "0.1", False, 1.5])
    def test_train_epsilon_rejected_before_the_corpus_is_read(self, mini_alphabet, bad):
        with pytest.raises(ModelError, match="epsilon"):
            train(self.unread(), epsilon=bad, alphabet=mini_alphabet)

    @pytest.mark.parametrize("bad,message", [
        (True, "must be an int or a float"), (Fraction(1, 10), "must be an int or a float"),
        (Decimal("0.1"), "must be an int or a float"), ("100", "must be an int or a float"),
        (10**400, "must be finite and strictly positive")],
        ids=["bool", "fraction", "decimal", "string", "huge-int"])
    def test_reference_rejected(self, bad, message):
        from phonospace import QuantizationConfig
        for name in ("reference_duration_sec", "reference_pitch_hz", "reference_loudness"):
            with pytest.raises(ValueError, match=f"{name} {message}"):
                QuantizationConfig(**{name: bad})
