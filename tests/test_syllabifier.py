import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonospace import (
    InvalidPhoneString,
    Phone,
    PhoneString,
    ProsodicVector,
    StressClass,
    StressWeights,
    Unit,
    classify_stress,
    collapse_repeats,
    parse_and_plan,
    parse_syllables,
    quantize,
    stress_score,
    string_violations,
    validate_string,
)
from conftest import legal_plans, random_valid_string

S, U = StressClass.STRESSED, StressClass.UNSTRESSED
LTR, RTL = StressClass.MIDDLING_LTR, StressClass.MIDDLING_RTL


@pytest.fixture()
def m(mk):
    return {
        "c": mk("closure:central:close:palatAlveoLabial"),
        "c2": mk("closure:central:close:velar"),
        "chi": mk("closure:central:mid:palatAlveoLabial"),
        "p": mk("plosive:back:close:palatAlveoLabial"),
        "t": mk("plosive:central:close:palatAlveoLabial"),
        "i": mk("vowel:front:close:glottal"),
        "o": mk("vowel:back:closeMid:glottal"),
        "a": mk("vowel:frontLike:open:glottal"),
        "n": mk("nasal:central:close:palatAlveoLabial"),
        "l": mk("approximant:backLike:mid:palatAlveoLabial"),
    }


def ph(marker, **kv):
    return Phone(marker, ProsodicVector(**kv))


class TestValidate:
    def test_minimal_legal_string(self, m):
        s = validate_string([ph(m["c"]), ph(m["i"]), ph(m["c"])])
        assert len(s) == 3

    def test_missing_start_closure(self, m):
        with pytest.raises(InvalidPhoneString) as exc:
            validate_string([ph(m["i"]), ph(m["c"]), ph(m["c"])])
        assert any(v.code == "missingBoundaryClosure" and v.index == 0
                   for v in exc.value.violations)

    def test_closure_run_too_long(self, m):
        codes = [v.code for v in string_violations(
            [ph(m["c"]), ph(m["c2"]), ph(m["chi"]), ph(m["i"]), ph(m["c"])])]
        assert "closureRunTooLong" in codes

    def test_too_short(self, m):
        codes = [v.code for v in string_violations([ph(m["c"]), ph(m["c"])])]
        assert codes == ["tooShort"]

    def test_all_closures(self, m):
        codes = [v.code for v in string_violations([ph(m["c"]), ph(m["c2"]), ph(m["c"])])]
        assert "allClosures" in codes

    def test_time_strictly_increasing(self, m):
        bad = [Phone(m["c"], ProsodicVector(), 0.0),
               Phone(m["i"], ProsodicVector(), 0.5),
               Phone(m["c"], ProsodicVector(), 0.5)]
        codes = [v.code for v in string_violations(bad)]
        assert "timeNotStrictlyIncreasing" in codes

    def test_nan_onset_cannot_hide_disorder(self, m):
        def string(middle_t0):
            return [Phone(m["c"], ProsodicVector(), 0.1), Phone(m["i"], ProsodicVector(), middle_t0),
                    Phone(m["c"], ProsodicVector(), 0.05)]

        assert "timeNotStrictlyIncreasing" in [v.code for v in string_violations(string(None))]
        # a NaN onset would compare false both ways and hide the disorder
        with pytest.raises(ValueError, match="field 't0' must be a finite number, got nan"):
            string(float("nan"))

    def test_marker_membership(self, m, alphabet, mk):
        ghost = mk("nasal:front:close:glottal")  # not a populated cell
        codes = [v.code for v in string_violations(
            [ph(m["c"]), Phone(ghost, ProsodicVector()), ph(m["c"])], alphabet)]
        assert codes == ["invalidMarker"]


class TestCollapse:
    def test_merges_adjacent_repeats(self, m):
        s = validate_string([ph(m["c"]), ph(m["i"]), ph(m["i"]), ph(m["c"])])
        out = collapse_repeats(s)
        assert out.markers() == (m["c"], m["i"], m["c"])

    def test_idempotent(self, m, rng, alphabet):
        for _ in range(50):
            s = PhoneString(tuple(random_valid_string(rng, alphabet, max_len=15)))
            once = collapse_repeats(s)
            assert collapse_repeats(once) == once

    def test_duration_requantized_from_linear_sum(self, m):
        # two 0.1 s phones merge into 0.2 s: one octave above the reference
        s = validate_string([ph(m["c"]), ph(m["i"], D=0), ph(m["i"], D=0), ph(m["c"])])
        merged = collapse_repeats(s).phones[1]
        assert merged.prosody.D == 4

    def test_merge_rules(self, m):
        run = [ph(m["i"], D=0, L=1, T=5, R=2, V=1, N=0),
               ph(m["i"], D=0, L=7, T=9, R=-1, V=0, N=1)]
        s = validate_string([ph(m["c"])] + run + [ph(m["c"])])
        got = collapse_repeats(s).phones[1].prosody
        assert got.L == 7 and got.T == 5 and got.R == 1
        assert got.V == 1 and got.N == 0  # ties resolve to the first phone

    def test_earliest_t0_kept(self, m):
        phones = [Phone(m["c"], ProsodicVector(), 0.0),
                  Phone(m["i"], ProsodicVector(), 0.1),
                  Phone(m["i"], ProsodicVector(), 0.2),
                  Phone(m["c"], ProsodicVector(), 0.3)]
        assert collapse_repeats(validate_string(phones)).phones[1].t0 == 0.1


class TestParse:
    def test_single_syllable(self, m):
        s = validate_string([ph(m["c"]), ph(m["p"]), ph(m["i"]), ph(m["n"]), ph(m["c"])])
        parse = parse_syllables(s)
        assert len(parse.syllables) == 1
        syl = parse.syllables[0]
        assert (syl.start, syl.nucleus, syl.end) == (0, 2, 4)
        assert list(syl.onset_range) == [0, 1, 2]
        assert list(syl.rhyme_range) == [2, 3, 4]

    def test_minimal_string(self, m):
        parse = parse_syllables(validate_string([ph(m["c"]), ph(m["o"]), ph(m["c"])]))
        assert len(parse.syllables) == 1
        assert parse.syllables[0].nucleus == 1

    def test_pinball_shares_minimum(self, m):
        phones = [ph(m["c"]), ph(m["p"]), ph(m["i"]), ph(m["n"]),
                  ph(m["p"]), ph(m["o"]), ph(m["l"]), ph(m["c"])]
        parse = parse_syllables(validate_string(phones))
        assert len(parse.syllables) == 2
        one, two = parse.syllables
        assert (one.nucleus, two.nucleus) == (2, 5)
        assert one.end_block == two.start_block
        assert one.end == 4 and two.start == 4

    def test_equivalent_neighbors_share_a_block(self, m, mk):
        # velar vs PAL fricatives are sonority-equivalent: one block
        x = mk("fricative:central:close:velar")
        f = mk("fricative:central:close:palatAlveoLabial")
        parse = parse_syllables(validate_string(
            [ph(m["c"]), ph(x), ph(f), ph(m["c"])]))
        assert len(parse.blocks) == 3
        assert len(parse.syllables) == 1

    def test_descending_edge_closures(self, m):
        # an opening two-closure descent anchors a degenerate first syllable
        phones = [ph(m["chi"]), ph(m["c"]), ph(m["i"]), ph(m["c"])]
        assert not string_violations(phones)
        parse = parse_syllables(validate_string(phones))
        assert parse.syllables[0].end_block == parse.syllables[1].start_block
        covered = set()
        for syl in parse.syllables:
            covered.update(range(syl.start, syl.end + 1))
        assert covered == set(range(4))


class TestStressScore:
    def test_single_vowel_counts_once(self, m):
        s = validate_string([ph(m["c"]), ph(m["i"]), ph(m["c"])])
        syl = parse_syllables(s).syllables[0]
        w = StressWeights(2.0, 3.0, 5.0, 7.0)
        # interior is the lone vowel at D=0 (0.1 s, the reference), L=0, T=0
        assert stress_score(syl, s, w) == 7.0

    def test_doubling_duration_adds_octave_units(self, m):
        base = [ph(m["c"], D=0), ph(m["p"], D=0), ph(m["i"], D=0), ph(m["c"], D=0)]
        double = [ph(m["c"], D=4), ph(m["p"], D=4), ph(m["i"], D=4), ph(m["c"], D=4)]
        w = StressWeights(1.0, 0.0, 0.0, 0.0)
        s1 = validate_string(base)
        s2 = validate_string(double)
        syl1 = parse_syllables(s1).syllables[0]
        syl2 = parse_syllables(s2).syllables[0]
        assert stress_score(syl2, s2, w) == stress_score(syl1, s1, w) + 4

    def test_deterministic(self, m):
        s = validate_string([ph(m["c"]), ph(m["i"], L=3), ph(m["c"])])
        syl = parse_syllables(s).syllables[0]
        assert stress_score(syl, s) == stress_score(syl, s)


class TestClassify:
    def test_single_syllable_is_stressed(self):
        assert classify_stress([object()], [1.0]) == [S]

    def test_peaks_and_dips(self):
        assert classify_stress([None] * 3, [5, 2, 7]) == [S, U, S]

    def test_virtual_edges(self):
        # first below a stressed second; last falls toward the virtual end
        assert classify_stress([None] * 3, [2, 5, 3]) == [U, S, LTR]

    def test_middling_directions(self):
        assert classify_stress([None] * 4, [9, 7, 5, 6]) == [S, LTR, U, S]
        assert classify_stress([None] * 4, [1, 4, 6, 9]) == [U, RTL, RTL, S]

    def test_tie_break_earlier_higher(self):
        assert classify_stress([None] * 2, [3, 3]) == [S, LTR]
        assert classify_stress([None] * 3, [3, 3, 3]) == [S, LTR, LTR]

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
           st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=200)
    def test_invariant_under_affine_maps(self, scores, a, b):
        mapped = [a * x + b for x in scores]
        assert classify_stress([None] * len(scores), scores) == \
            classify_stress([None] * len(scores), mapped)


class TestPlan:
    def test_stressed_scheme(self, m):
        phones = [ph(m["c"]), ph(m["p"]), ph(m["i"]), ph(m["n"]), ph(m["c"])]
        s, parse, scores, classes, plan = parse_and_plan(phones)
        assert classes == [S]
        got = {(f.target, f.context, f.unit) for f in plan.factors}
        assert got == {
            (0, (1,), Unit.ONSET), (1, (2,), Unit.ONSET),
            (3, (2,), Unit.RHYME), (4, (3,), Unit.RHYME),
        }

    def test_unstressed_nucleus_is_joint(self, m):
        phones = [ph(m["c"]), ph(m["t"]), ph(m["a"], L=9), ph(m["c"]),
                  ph(m["i"]), ph(m["c"]), ph(m["o"], L=9), ph(m["c"])]
        s, parse, scores, classes, plan = parse_and_plan(phones)
        assert classes[1] is U
        joint = [f for f in plan.factors if f.unit is Unit.NUCLEUS and f.stress is U]
        assert len(joint) == 1 and joint[0].context == (3, 5)

    def test_pinball_n_conditions_on_nucleus(self, m):
        phones = [ph(m["c"]), ph(m["p"]), ph(m["i"], L=8), ph(m["n"]),
                  ph(m["p"]), ph(m["o"]), ph(m["l"]), ph(m["c"])]
        s, parse, scores, classes, plan = parse_and_plan(phones)
        assert classes == [S, LTR]
        n_factors = [f for f in plan.factors if f.target == 3]
        assert n_factors == [f for f in n_factors if f.context == (2,)]
        # the shared minimum is targeted exactly once, by the left rhyme
        b_factors = [f for f in plan.factors if f.target == 4]
        assert len(b_factors) == 1 and b_factors[0].unit is Unit.RHYME \
            and b_factors[0].syllable == 0

    def test_bare_nucleus_syllable_has_only_nucleus_factor(self, m):
        # middle syllable [c, i, c]: unstressed between two stressed peaks
        phones = [ph(m["c"]), ph(m["t"]), ph(m["a"], L=9), ph(m["c"]),
                  ph(m["i"]), ph(m["c"]), ph(m["o"], L=9), ph(m["c"])]
        s, parse, scores, classes, plan = parse_and_plan(phones)
        middle = [f for f in plan.factors if f.syllable == 1]
        assert len(middle) == 1 and middle[0].unit is Unit.NUCLEUS

    def test_completeness_over_random_strings(self, rng, alphabet):
        # every phone targeted at most once; untargeted = boundary phones of
        # non-targeting schemes and stressed nuclei (given, not drawn)
        for _ in range(200):
            phones = random_valid_string(rng, alphabet, max_len=20)
            s, parse, scores, classes, plan = parse_and_plan(phones, alphabet)
            targets = plan.targets()
            assert len(targets) == len(set(targets))
            untargeted = set(range(len(s))) - set(targets)
            for i in untargeted:
                phone_is_boundary = any(
                    i in range(syl.start, syl.interior_start) or
                    i in range(syl.interior_end + 1, syl.end + 1)
                    for syl in parse.syllables)
                is_stressed_nucleus = any(
                    syl.nucleus == i and cls is S
                    for syl, cls in zip(parse.syllables, classes))
                assert phone_is_boundary or is_stressed_nucleus
            # contexts stay inside the factor's own syllable
            for f in plan.factors:
                syl = parse.syllables[f.syllable]
                for c in f.context:
                    if c is not None:
                        assert syl.start <= c <= syl.end

    def test_unimodal_and_covering(self, rng, alphabet):
        from phonospace import cmp_sonority, SonorityRelation
        for _ in range(300):
            phones = random_valid_string(rng, alphabet, max_len=25)
            s, parse, *_ = parse_and_plan(phones, alphabet)
            covered = set()
            for syl in parse.syllables:
                covered.update(range(syl.start, syl.end + 1))
                reps = [parse.blocks[b] for b in range(syl.start_block, syl.end_block + 1)]
                seen_peak = False
                for left, right in zip(reps, reps[1:]):
                    rel = cmp_sonority(s.phones[left.end].marker, s.phones[right.start].marker)
                    assert rel is not SonorityRelation.EQUIVALENT
                    if rel is SonorityRelation.GREATER:
                        seen_peak = True
                    else:
                        assert not seen_peak  # never rise again after falling
            assert covered == set(range(len(s)))
            for a, b in zip(parse.syllables, parse.syllables[1:]):
                assert a.end_block == b.start_block


class TestPlanOrder:
    """sha256 of the plan factors, in emission order, over every legal class sequence.

    Scores sum the factors' log-probabilities in this order and `syllabify`
    prints them in it, so the order is part of the output; the oracle tests
    compare factors as sets and do not see it. The digests come from the
    plan that had one branch per stress class.
    """

    DIGESTS = {
        "default": "17900611641ff6b9b762587ac570a18d738e48780ebce2becc7b64ff9657b85c",
        "mini": "beece810871a0e6e6b44300cf9ff28c2864ad7fab2552b7d9f0094c348a625fd",
    }

    @pytest.mark.parametrize("name", ["default", "mini"])
    def test_digest(self, name, alphabet, mini_alphabet, rng):
        h = hashlib.sha256()
        for _s, plan in legal_plans(rng, alphabet if name == "default" else mini_alphabet):
            for f in plan.factors:
                h.update(repr((f.target, f.context, f.unit.value, f.stress.value, f.syllable)).encode())
        assert h.hexdigest() == self.DIGESTS[name]
