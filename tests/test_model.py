import io
import math
from collections import Counter

import numpy as np
import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    Phone,
    ProsodicLimits,
    ProsodicVector,
    StressClass,
    Unit,
    admissible_targets,
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
from phonospace.model import AlphabetMismatchError, ModelError, ModelFormatError, LanguageModel
from conftest import random_valid_string
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
        text = buf.getvalue().replace('"tables":[]',
            '"tables":[{"key":{"unit":"onset","stress":"stressed","context":[{"null":true}]},'
            '"dist":[[{"null":true},"0.9"]]}]')
        with pytest.raises(ModelFormatError, match="non-normalized"):
            load_model(text, mini_alphabet)

    def test_version_mismatch(self, mini_alphabet, alphabet):
        m = generic_model(mini_alphabet, epsilon=0.1)
        buf = io.StringIO()
        save_model(m, buf)
        with pytest.raises(AlphabetMismatchError):
            load_model(buf.getvalue(), alphabet)

    def test_malformed_json(self, mini_alphabet):
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model("{not json", mini_alphabet)

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
    def test_entries_list_exceptions_with_a_floor(self, alphabet, rng):
        import json
        corpus = [random_valid_string(rng, alphabet, max_len=10) for _ in range(10)]
        m = train(corpus, alpha=0.01, alphabet=alphabet)
        buf = io.StringIO()
        save_model(m, buf)
        doc = json.loads(buf.getvalue())
        assert doc["format"] == "phonospace-model-2"
        for entry in doc["tables"]:
            assert set(entry) == {"key", "dist", "floor"}
            assert len(entry["dist"]) < len(alphabet) // 2
        assert load_model(buf.getvalue(), alphabet).tables == m.tables

    def test_partial_support_saved_dense(self, mini_alphabet):
        mm = mini_markers(mini_alphabet)
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        d = CategoricalDist([(None, 0.25), (mm["n"], 0.75)])
        m = LanguageModel(alphabet=mini_alphabet, tables={key: d}, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
        buf = io.StringIO()
        save_model(m, buf)
        assert '"floor"' not in buf.getvalue()
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
        buf = io.StringIO()
        save_model(m, buf)
        text = buf.getvalue()
        floor = m.tables[next(iter(m.tables))].floor
        with pytest.raises(ModelFormatError, match="negative"):
            load_model(text.replace(f'"floor":"{floor!r}"', f'"floor":"{-floor!r}"', 1),
                       mini_alphabet)
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(text.replace(f'"floor":"{floor!r}"', '"floor":"x"', 1), mini_alphabet)
        with pytest.raises(ModelFormatError, match="unknown model format"):
            load_model(text.replace("phonospace-model-2", "phonospace-model-3"), mini_alphabet)
