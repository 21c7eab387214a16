import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    Marker,
    Phone,
    ProsodicVector,
    Regime,
    StressClass,
    TransformKind,
    TransformSpec,
    Unit,
    apply,
    drift_report,
    factor_key,
    generic_model,
    ordinal_distance,
    score,
    train,
)
from phonospace.model import LanguageModel, ModelError, admissible_targets, following_context_slot
from conftest import legal_plans, random_valid_string

S, U = StressClass.STRESSED, StressClass.UNSTRESSED


def ph(marker, **kv):
    return Phone(marker, ProsodicVector(**kv))


@pytest.fixture()
def trained(mini_alphabet, rng):
    corpus = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
              for _ in range(60)]
    return train(corpus, alpha=0.01, epsilon=0.05, alphabet=mini_alphabet)


ALL_KINDS = list(TransformKind)


class TestIdentity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_lambda_zero(self, trained, kind):
        varied = apply(trained, Regime(rate=2.0, loud=3.0, pitch=2.0), TransformSpec(kind, 0.0))
        for key in trained.tables:
            assert varied.dist(key) is trained.dist(key)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_regime_all_ones(self, trained, kind):
        varied = apply(trained, Regime(), TransformSpec(kind, 0.7))
        for key in trained.tables:
            base, after = trained.dist(key), varied.dist(key)
            if kind is TransformKind.ASSIMILATION:
                continue  # assimilation scales by lambda alone
            assert after.entries == base.entries

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            TransformSpec(TransformKind.SYNCOPE, 1.5)

    def test_regime_validated(self):
        with pytest.raises(ValueError):
            Regime(rate=0.0)

    @pytest.mark.parametrize("kind", ["syncope", None, 0])
    def test_kind_must_be_a_transform_kind(self, kind):
        with pytest.raises(ValueError, match="field 'kind' must be a TransformKind"):
            TransformSpec(kind, 0.5)

    @pytest.mark.parametrize("lam", [True, False, "0.5", None])
    def test_lambda_must_be_a_number(self, lam):
        with pytest.raises(ValueError, match="field 'lam' must be an int or a float"):
            TransformSpec(TransformKind.SYNCOPE, lam)

    def test_unknown_kind_never_straightens(self, trained):
        from phonospace.variation import AppliedTransform
        spec = TransformSpec(TransformKind.STRAIGHTENING, 0.5)
        object.__setattr__(spec, "kind", "syncope")  # past the constructor's check
        key = next(k for k in trained.tables if any(c is not None for c in k.context))
        with pytest.raises(ValueError, match="unknown transform kind 'syncope'"):
            AppliedTransform(spec, Regime(rate=2.0)).apply(trained, key, trained.dist(key))


class TestSyncope:
    def test_null_mass_doubles_then_renormalizes(self, mini_alphabet):
        support = [None] + list(mini_alphabet)
        rest = [t for t in support if t is not None]
        entries = [(None, 0.1)] + [(t, 0.9 / len(rest)) for t in rest]
        key = CondKey(Unit.RHYME, U, (rest[0],))
        model = LanguageModel(alphabet=mini_alphabet, tables={key: CategoricalDist(entries)},
                              epsilon=0.0, alpha=0.0,
                              limits=__import__("phonospace").ProsodicLimits.full())
        varied = apply(model, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 1.0))
        assert varied.dist(key).prob(None) == pytest.approx(0.2 / 1.1, abs=1e-12)

    def test_only_unstressed_keys_change(self, trained):
        varied = apply(trained, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 1.0))
        for key in trained.tables:
            same = varied.dist(key).entries == trained.dist(key).entries
            assert same == (key.stress is not U)

    def test_normalization_preserved(self, trained):
        varied = apply(trained, Regime(rate=3.0), TransformSpec(TransformKind.SYNCOPE, 0.8))
        for key in trained.tables:
            assert abs(sum(p for _, p in varied.dist(key).entries) - 1.0) < 1e-9


class TestEpenthesis:
    def test_joining_mass_scaled(self, mini_alphabet):
        eps = 0.1
        base = generic_model(mini_alphabet, epsilon=eps)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        varied = apply(base, Regime(loud=2.0), TransformSpec(TransformKind.EPENTHESIS, 1.0))
        adm = admissible_targets(mini_alphabet, key)
        excluded = [t for t in mini_alphabet if t not in adm]
        d0, d1 = base.dist(key), varied.dist(key)
        scale = sum(d1.prob(t) for t in excluded) / sum(d0.prob(t) for t in excluded)
        assert scale > 1.0
        # admissible entries shrink by the common renormalizer
        ratios = {round(d1.prob(t) / d0.prob(t), 12) for t in adm}
        assert len(ratios) == 1

    def test_untouched_without_joining_mass(self, mini_alphabet):
        base = generic_model(mini_alphabet, epsilon=0.0)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        varied = apply(base, Regime(loud=2.0), TransformSpec(TransformKind.EPENTHESIS, 1.0))
        assert varied.dist(key).entries == base.dist(key).entries


class TestLenition:
    def test_plosive_mass_moves_to_approximant(self, mini_alphabet, mk):
        base = generic_model(mini_alphabet, epsilon=0.05)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        t, r = mm["t"], mm["r"]
        key = CondKey(Unit.ONSET, U, (mm["i"],))  # intervocalic-style context
        varied = apply(base, Regime(rate=2.0), TransformSpec(TransformKind.LENITION, 1.0))
        d0, d1 = base.dist(key), varied.dist(key)
        moved = d0.prob(t) * 0.5  # lambda*(rate-1)/rate
        assert d1.prob(t) == pytest.approx(d0.prob(t) - moved, abs=1e-15)
        assert d1.prob(r) == pytest.approx(d0.prob(r) + moved, abs=1e-15)

    def test_slow_regime_is_identity(self, mini_alphabet):
        base = generic_model(mini_alphabet, epsilon=0.05)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        key = CondKey(Unit.ONSET, U, (mm["i"],))
        varied = apply(base, Regime(rate=0.5), TransformSpec(TransformKind.LENITION, 1.0))
        assert varied.dist(key).entries == base.dist(key).entries

    def test_consonant_context_untouched(self, mini_alphabet):
        base = generic_model(mini_alphabet, epsilon=0.05)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        key = CondKey(Unit.ONSET, U, (mm["n"],))
        varied = apply(base, Regime(rate=2.0), TransformSpec(TransformKind.LENITION, 1.0))
        assert varied.dist(key).entries == base.dist(key).entries


class TestAssimilation:
    def test_direction_sensitivity(self, mini_alphabet):
        base = generic_model(mini_alphabet, epsilon=0.05)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        n, m_, p = mm["n"], mm["m"], mm["p"]
        varied = apply(base, Regime(rate=2.0), TransformSpec(TransformKind.ASSIMILATION, 0.5))
        inward = CondKey(Unit.RHYME, U, (p,))       # conditions on the following plosive
        outward = CondKey(Unit.RHYME, S, (p,))      # conditions on the preceding phone
        d0, d1 = base.dist(inward), varied.dist(inward)
        assert d1.prob(n) == pytest.approx(d0.prob(n) * 0.5, abs=1e-15)
        assert d1.prob(m_) == pytest.approx(d0.prob(m_) + d0.prob(n) * 0.5, abs=1e-15)
        assert varied.dist(outward).entries == base.dist(outward).entries

    def test_pinball_score_unchanged_contrast_changed(self, alphabet, mk):
        c = mk("closure:central:close:palatAlveoLabial")
        t = mk("plosive:central:close:palatAlveoLabial")
        a = mk("vowel:frontLike:open:glottal")
        i = mk("vowel:front:close:glottal")
        n = mk("nasal:central:close:palatAlveoLabial")
        p = mk("plosive:back:close:palatAlveoLabial")
        o = mk("vowel:back:closeMid:glottal")
        l = mk("approximant:backLike:mid:palatAlveoLabial")
        pinball = [ph(c), ph(p), ph(i, L=8), ph(n), ph(p), ph(o), ph(l), ph(c)]
        contrast = [ph(c), ph(t), ph(a, L=9), ph(c), ph(i), ph(n), ph(p),
                    ph(o, L=9), ph(l), ph(c)]
        base = generic_model(alphabet, epsilon=0.05)
        varied = apply(base, Regime(rate=2.0), TransformSpec(TransformKind.ASSIMILATION, 0.5))
        assert score(varied, pinball) == score(base, pinball)
        assert score(varied, contrast) != score(base, contrast)


class TestStraightening:
    def test_sharpens_toward_near_targets(self, mini_alphabet):
        base = generic_model(mini_alphabet, epsilon=0.3)
        mm = {mini_alphabet.symbol_of(m): m for m in mini_alphabet}
        key = CondKey(Unit.RHYME, S, (mm["i"],))
        varied = apply(base, Regime(rate=2.0), TransformSpec(TransformKind.STRAIGHTENING, 1.0))
        d0, d1 = base.dist(key), varied.dist(key)
        near = mm["j"]   # one manner step from i
        far = mm["Q"]    # across manner, frontBack and place
        assert ordinal_distance(mm["i"], near) < ordinal_distance(mm["i"], far)
        assert d1.prob(near) / d0.prob(near) > d1.prob(far) / max(d0.prob(far), 1e-300)
        assert abs(sum(p for _, p in d1.entries) - 1.0) < 1e-9

    def test_distance_symmetry_and_zero(self, mini_alphabet):
        cells = list(mini_alphabet)
        for a in cells:
            assert ordinal_distance(a, a) == 0
            for b in cells:
                assert ordinal_distance(a, b) == ordinal_distance(b, a)


class TestDriftReport:
    def test_self_distance_zero(self, trained):
        report = drift_report(trained, trained)
        assert all(tv == 0.0 for _, tv in report)

    def test_syncope_drift_exactly_on_unstressed(self, trained):
        varied = apply(trained, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 1.0))
        report = dict(drift_report(trained, varied))
        for key, tv in report.items():
            assert 0.0 <= tv <= 1.0
            if key.stress is U:
                assert tv > 0.0
            else:
                assert tv == 0.0

    def test_sorted_descending(self, trained):
        varied = apply(trained, Regime(rate=3.0), TransformSpec(TransformKind.SYNCOPE, 1.0))
        tvs = [tv for _, tv in drift_report(trained, varied)]
        assert tvs == sorted(tvs, reverse=True)

    def test_alphabet_mismatch(self, trained, alphabet):
        other = generic_model(alphabet)
        with pytest.raises(ModelError):
            drift_report(trained, other)


class TestNonFiniteRegime:
    @pytest.mark.parametrize("field", ["rate", "loud", "pitch"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            Regime(**{field: bad})

    @pytest.mark.parametrize("field", ["rate", "loud", "pitch"])
    @pytest.mark.parametrize("bad,message", [
        ("2", "must be an int or a float"), (True, "must be an int or a float"),
        (10**400, "must be finite"), (-1, "must be finite")], ids=["str", "bool", "huge", "negative"])
    def test_rejected_naming_the_field(self, field, bad, message):
        with pytest.raises(ValueError, match=f"^field '{field}' {message}"):
            Regime(**{field: bad})

    def test_integer_factors_accepted(self):
        assert Regime(rate=2, loud=3, pitch=1) == Regime(rate=2.0, loud=3.0, pitch=1.0)


def test_ordinal_distance_routes_incomparables_through_the_top(mk):
    # front/back meet at central (2 + 2); velar/PAL meet at uvular (1 + 1)
    a = mk("vowel:front:close:velar")
    b = mk("vowel:back:close:palatAlveoLabial")
    assert ordinal_distance(a, b) == 4 + 2
    c = mk("closure:frontLike:open:glottal")
    assert ordinal_distance(a, c) == 5 + 1 + 6 + 4


def test_distance_rows_equal_ordinal_distance(alphabet, mini_alphabet):
    from phonospace.model import _AdmissibilityIndex
    index = _AdmissibilityIndex(mini_alphabet)
    # contexts range over every default cell, targets over the mini cells
    for ctx in alphabet:
        assert index.distances(ctx) == tuple(ordinal_distance(ctx, t) for t in index.cells)


@pytest.mark.parametrize("rate", [0.6, 2.0])
def test_straightening_equals_per_target_reference(trained, alphabet, rate):
    import math
    lam = 0.8
    beta = 1.0 + lam * (rate - 1.0)
    spec = TransformSpec(TransformKind.STRAIGHTENING, lam)
    cells = list(alphabet)
    generic = generic_model(alphabet)
    cases = [(trained, list(trained.tables)),
             (generic, [CondKey(Unit.NUCLEUS, U, (cells[5], cells[200])),
                        CondKey(Unit.RHYME, S, (cells[100],)),
                        CondKey(Unit.NUCLEUS, U, (None, cells[300]))])]
    for model, keys in cases:
        varied = apply(model, Regime(rate=rate), spec)
        for key in keys:
            contexts = [c for c in key.context if c is not None]
            probs = {}
            for t, p in model.dist(key).entries:
                d = 0.0 if t is None else sum(ordinal_distance(c, t) for c in contexts) / len(contexts)
                probs[t] = p * math.exp(-(beta - 1.0) * d)
            total = sum(probs.values())
            assert varied.dist(key).entries == tuple((t, p / total) for t, p in probs.items())


class TestFollowingContextSlot:
    @pytest.mark.parametrize("name", ["default", "mini"])
    def test_names_the_later_context_phone(self, name, alphabet, mini_alphabet, rng):
        # assimilation reads this slot as the phone that follows the target in time
        for s, plan in legal_plans(rng, alphabet if name == "default" else mini_alphabet):
            for f in plan.factors:
                slot = following_context_slot(factor_key(s, f)[0])
                later = [i for i, c in enumerate(f.context) if c is not None and c > f.target]
                assert len(later) <= 1
                if later:
                    assert slot == later[0]
                else:
                    assert slot is None or f.context[slot] is None


def test_straightening_a_partial_support_matches_the_reference(mini_alphabet, mk):
    # a distribution over fewer targets than the alphabet has keeps its own support
    import math
    from phonospace import ProsodicLimits
    closure, vowel, nasal = (mk(a) for a in ("closure:central:close:palatAlveoLabial",
                                             "vowel:front:close:glottal",
                                             "nasal:central:close:palatAlveoLabial"))
    key = CondKey(Unit.RHYME, S, (vowel,))
    d = CategoricalDist([(None, 0.25), (nasal, 0.5), (closure, 0.25)])
    model = LanguageModel(alphabet=mini_alphabet, tables={key: d}, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
    varied = apply(model, Regime(rate=2.0), TransformSpec(TransformKind.STRAIGHTENING, 1.0))
    probs = {t: p * (1.0 if t is None else math.exp(-ordinal_distance(vowel, t)))
             for t, p in d.entries}
    total = sum(probs.values())
    got = varied.dist(key)
    assert got.support() == d.support()
    assert got.entries == tuple((t, p / total) for t, p in probs.items())


class TestTransformedLawBytes:
    """Pins the bits every transform produces, over both alphabets and both kinds of base.

    The digest is the sha256 of ``repr((key, d.entries))`` for each transformed
    dist, in the order below; it was taken before syncope and epenthesis shared
    their scaling helper, so any change in a transformed probability fails it.
    """

    DIGEST = "a25e5419c8a635620a383e890b1dce078d940dd1ba7220ad012935a20acd69ac"
    # (lambda, regime): a mild regime, a slow quiet one, and one whose factors clip
    REGIMES = [(0.5, Regime(rate=2, loud=3)), (1.0, Regime(rate=0.25, loud=0.25)),
               (1.0, Regime(rate=1e6, loud=1e6))]
    GRID = [(unit, c) for unit in (Unit.ONSET, Unit.RHYME) for c in StressClass]

    def keys(self, alphabet, trained):
        stored = sorted(trained.tables, key=CondKey.sort_key)
        cells = list(alphabet)
        keys = stored[::-(-len(stored) // 60)]  # at most 60, spread over the stored keys
        # every eighth cell's onset and rhyme keys in every class; on a large
        # alphabet every ninth of them, which still visits every class and unit
        cell_keys = [CondKey(unit, c, (m,)) for unit, c in self.GRID for m in cells[::8]]
        keys += cell_keys[::-(-len(cells) // 40)]
        # the later context of an unstressed nucleus triggers assimilation
        trigger = Marker.from_ascii("plosive:back:close:palatAlveoLabial")
        return keys + [CondKey(Unit.NUCLEUS, U, (cells[1], trigger)), CondKey(Unit.NUCLEUS, S, (None,))]

    def partial_support_model(self, mini_alphabet, mk):
        # one dist over fewer targets than the alphabet has, under a key each
        # kind of transform edits
        t, r, n, m = (mk(f"{manner}:{fb}:close:palatAlveoLabial") for manner, fb in (
            ("plosive", "central"), ("approximant", "central"), ("nasal", "central"), ("nasal", "back")))
        vowel, trigger = mk("vowel:front:close:glottal"), mk("plosive:back:close:palatAlveoLabial")
        d = CategoricalDist([(None, 0.2), (t, 0.3), (r, 0.1), (n, 0.25), (m, 0.15)])
        tables = {CondKey(Unit.RHYME, U, (vowel,)): d, CondKey(Unit.ONSET, S, (trigger,)): d}
        from phonospace import ProsodicLimits
        return LanguageModel(alphabet=mini_alphabet, tables=tables, epsilon=0.05, alpha=0.0,
                             limits=ProsodicLimits.full())

    def test_digest(self, alphabet, mini_alphabet, mk):
        import hashlib
        from phonospace import sample_with_rng
        from phonospace.prng import Pcg64
        cases = []
        for a in (mini_alphabet, alphabet):
            generic = generic_model(a, epsilon=0.05)
            rng = Pcg64(11)
            trained = train([sample_with_rng(generic, 3, rng) for _ in range(40)], alphabet=a)
            keys = self.keys(a, trained)
            cases += [(generic, keys), (trained, keys)]
        partial = self.partial_support_model(mini_alphabet, mk)
        cases.append((partial, list(partial.tables)))
        h = hashlib.sha256()
        # id -> (dist, repr of its entries), so a dist a transform leaves is formatted
        # once; holding the dist keeps its id from being reused
        texts = {}
        for base, keys in cases:
            for kind in TransformKind:
                for lam, regime in self.REGIMES:
                    varied = apply(base, regime, TransformSpec(kind, lam))
                    for key in keys:
                        d = varied.dist(key)
                        if id(d) not in texts:
                            texts[id(d)] = d, repr(d.entries)
                        h.update(f"({key!r}, {texts[id(d)][1]})".encode())  # repr((key, d.entries))
        assert h.hexdigest() == self.DIGEST
