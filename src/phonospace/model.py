"""Conditional categorical models over phone strings.

A language model is a table of categorical distributions keyed by
(unit, stress class, context markers), together with a joining mass, a
smoothing constant, uniform prosodic limit intervals and the
quantization config. Lookups for keys absent from the table fall back
to the generic language-neutral construction: uniform over the targets
admissible under the diphthongal constraint in the key's direction
(plus the null phone), with the joining mass spread uniformly over the
excluded markers so onsets and rhymes stay joinable.

Scoring a string is the sum of the log conditionals of its dependency
plan plus, per phone, the log of the uniform prosodic factor; training
is add-alpha counting over plans; sampling realizes syllables in
dependency order from the same conditionals.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from .alphabet import (
    DEFAULT_QUANTIZATION,
    Alphabet,
    Manner,
    Marker,
    Phone,
    ProsodicVector,
    QuantizationConfig,
)
from .sonority import is_diphthongal_step
from .syllabifier import (
    InvalidPhoneString,
    PhoneString,
    StressClass,
    StressWeights,
    Unit,
    Factor,
    classify_stress,
    collapse_repeats,
    dependency_plan,
    parse_syllables,
    stress_score,
    string_violations,
    validate_string,
)

Target = Optional[Marker]  # None is the null phone


class ModelError(ValueError):
    pass


class ModelFormatError(ModelError):
    """Malformed model document."""


class AlphabetMismatchError(ModelError):
    """Model built against a different alphabet version."""


class TrainingError(ModelError):
    pass


class SampleError(ModelError):
    """Rejection sampling retry budget exhausted."""


@lru_cache(maxsize=None)  # tiny domain: the alphabet cells plus None
def _target_sort_key(t: Target) -> tuple:
    return (0,) if t is None else (1,) + t.sort_key()


@dataclass(frozen=True)
class CondKey:
    """Key of one conditional distribution.

    Context is the ordered tuple of conditioning markers; None slots are
    the null phone. Unstressed-nucleus keys carry the two adjacent
    phones, every other key a single context entry.
    """

    unit: Unit
    stress: StressClass
    context: Tuple[Target, ...]

    def sort_key(self) -> tuple:
        units = list(Unit)
        classes = list(StressClass)
        return (
            units.index(self.unit), classes.index(self.stress),
            len(self.context), tuple(_target_sort_key(c) for c in self.context),
        )


class Support:
    """The targets of a distribution in canonical order, with set membership.

    All distributions over one alphabet's cells plus the null phone share
    the instance held by that alphabet's admissibility index.
    """

    __slots__ = ("targets", "members")

    def __init__(self, targets: Iterable[Target]):
        self.targets = tuple(sorted(targets, key=_target_sort_key))
        self.members = frozenset(self.targets)


class CategoricalDist:
    """Immutable categorical over markers plus the null phone.

    Stored as its support, one floor probability shared by every support
    target without an exception, and a map of exceptions. The floor is
    the most common probability among the dense entries, ties going to
    the smaller one, so equal distributions store equal parts.
    """

    __slots__ = ("_support", "floor", "exceptions", "_cum")

    def __init__(self, entries: Union[Dict[Target, float], Iterable[Tuple[Target, float]]],
                 support: Optional[Support] = None, floor: float = 0.0):
        """``entries`` are (target, p) pairs or a dict of them.

        Without ``support`` they list the whole support. With it they are
        exceptions, and every other target of ``support`` has ``floor``.
        """
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        probs = dict(pairs)
        if len(probs) != len(pairs):
            dup = next(t for t, n in Counter(t for t, _ in pairs).items() if n > 1)
            raise ModelFormatError(f"duplicate target {dup!r}")
        if support is None:
            support = Support(probs)
        elif not probs.keys() <= support.members:
            raise ModelFormatError("exception target outside the support")
        n_floor = len(support.targets) - len(probs)
        if probs and min(probs.values()) < 0:
            t, p = next((t, p) for t, p in pairs if p < 0)
            raise ModelFormatError(f"negative probability {p} for {t!r}")
        if n_floor and floor < 0:
            raise ModelFormatError(f"negative floor probability {floor}")
        total = sum(probs.values()) + floor * n_floor
        if abs(total - 1.0) > 1e-9:
            raise ModelFormatError(f"non-normalized distribution (sum {total!r})")
        if None not in support.members:
            raise ModelFormatError("null phone missing from support")
        counts = Counter(probs.values())
        if n_floor:
            counts[floor] += n_floor
        canonical = min(counts, key=lambda p: (-counts[p], p))
        if n_floor and canonical != floor:
            probs.update(dict.fromkeys(support.members - probs.keys(), floor))
        self._support = support
        self.floor = canonical
        self.exceptions = {t: p for t, p in probs.items() if p != canonical}
        self._cum = None

    @property
    def entries(self) -> Tuple[Tuple[Target, float], ...]:
        """Dense (target, p) pairs over the support, in canonical order."""
        exc, floor = self.exceptions, self.floor
        return tuple((t, exc.get(t, floor)) for t in self._support.targets)

    def prob(self, target: Target) -> float:
        p = self.exceptions.get(target)
        if p is None:
            return self.floor if target in self._support.members else 0.0
        return p

    def support(self) -> Tuple[Target, ...]:
        return self._support.targets

    def rebuilt(self, exceptions: Dict[Target, float], floor: float) -> "CategoricalDist":
        """A distribution over the same support with new exceptions and floor."""
        return CategoricalDist(exceptions, self._support, floor)

    def tv_distance(self, other: "CategoricalDist") -> float:
        keys = set(self.support()) | set(other.support())
        return 0.5 * sum(abs(self.prob(t) - other.prob(t)) for t in keys)

    def sample(self, rng: np.random.Generator) -> Target:
        if self._cum is None:
            self._cum = list(accumulate(p for _, p in self.entries))
        targets = self._support.targets
        i = bisect_right(self._cum, float(rng.random()))
        return targets[min(i, len(targets) - 1)]

    def __eq__(self, other):
        return (isinstance(other, CategoricalDist) and self.floor == other.floor
                and self.exceptions == other.exceptions
                and self._support.targets == other._support.targets)

    def __repr__(self):
        nz = sum(1 for _, p in self.entries if p > 0)
        return f"CategoricalDist({len(self._support.targets)} targets, {nz} nonzero)"


@dataclass(frozen=True)
class ProsodicLimits:
    """Per-dimension intervals (inclusive) and allowed bit sets."""

    R: Tuple[int, int] = (-64, 64)
    T: Tuple[int, int] = (-64, 64)
    D: Tuple[int, int] = (-64, 64)
    L: Tuple[int, int] = (-64, 64)
    N: frozenset = frozenset({0, 1})
    V: frozenset = frozenset({0, 1})

    def __post_init__(self):
        for name in ("R", "T", "D", "L"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} interval has lo > hi")
        for name in ("N", "V"):
            allowed = frozenset(getattr(self, name))
            if not allowed or not allowed <= {0, 1}:
                raise ValueError(f"{name} must allow a nonempty subset of {{0,1}}")
            object.__setattr__(self, name, allowed)

    @classmethod
    def full(cls, max_abs: int = 64) -> "ProsodicLimits":
        iv = (-max_abs, max_abs)
        return cls(R=iv, T=iv, D=iv, L=iv)

    def contains(self, pv: ProsodicVector) -> bool:
        return (
            self.R[0] <= pv.R <= self.R[1] and self.T[0] <= pv.T <= self.T[1]
            and self.D[0] <= pv.D <= self.D[1] and self.L[0] <= pv.L <= self.L[1]
            and pv.N in self.N and pv.V in self.V
        )

    def log_mass(self) -> float:
        """Log of one phone's uniform prosodic factor inside the limits."""
        out = 0.0
        for name in ("R", "T", "D", "L"):
            lo, hi = getattr(self, name)
            out -= math.log(hi - lo + 1)
        out -= math.log(len(self.N))
        out -= math.log(len(self.V))
        return out


# ---------------------------------------------------------------------------
# direction structure of the factor schemes

# keys whose target sits one step farther from the nucleus than the context
_AWAY = {
    (Unit.ONSET, StressClass.STRESSED), (Unit.ONSET, StressClass.MIDDLING_RTL),
    (Unit.RHYME, StressClass.STRESSED), (Unit.RHYME, StressClass.MIDDLING_LTR),
}
# keys whose single context temporally follows the target (assimilation triggers)
CTX_FOLLOWS = {
    (Unit.ONSET, StressClass.STRESSED), (Unit.ONSET, StressClass.MIDDLING_RTL),
    (Unit.RHYME, StressClass.UNSTRESSED), (Unit.RHYME, StressClass.MIDDLING_RTL),
    (Unit.NUCLEUS, StressClass.MIDDLING_RTL),
}


def following_context_slot(key: CondKey) -> Optional[int]:
    """Index of the context entry that follows the target in time, if any."""
    if key.unit is Unit.NUCLEUS and key.stress is StressClass.UNSTRESSED:
        return 1 if len(key.context) > 1 else None
    if (key.unit, key.stress) in CTX_FOLLOWS:
        return 0
    return None


class _AdmissibilityIndex:
    """Single-step admissibility of one alphabet's cells, rows built on first use."""

    def __init__(self, alphabet: Alphabet):
        self.cells = tuple(alphabet)  # canonical order
        self.closures = tuple(m for m in self.cells if m.manner is Manner.CLOSURE)
        self.support = Support((None,) + self.cells)
        self._away: Dict[Marker, frozenset] = {}
        self._toward: Dict[Marker, frozenset] = {}

    def away(self, ctx: Marker) -> frozenset:
        got = self._away.get(ctx)
        if got is None:
            got = frozenset(t for t in self.cells if is_diphthongal_step(ctx, t))
            self._away[ctx] = got
        return got

    def toward(self, ctx: Marker) -> frozenset:
        got = self._toward.get(ctx)
        if got is None:
            got = frozenset(t for t in self.cells if is_diphthongal_step(t, ctx))
            self._toward[ctx] = got
        return got


# weak keys: an index lives exactly as long as its alphabet
_INDEXES: "WeakKeyDictionary[Alphabet, _AdmissibilityIndex]" = WeakKeyDictionary()


def _index_for(alphabet: Alphabet) -> _AdmissibilityIndex:
    index = _INDEXES.get(alphabet)
    if index is None:
        index = _INDEXES[alphabet] = _AdmissibilityIndex(alphabet)
    return index


def admissible_targets(alphabet: Alphabet, key: CondKey) -> frozenset:
    """Markers reachable from the key's context under the diphthongal step.

    Null context slots impose no constraint; the null phone is always
    admissible on top of the returned markers.
    """
    index = _index_for(alphabet)
    ctx = [c for c in key.context if c is not None]
    if not ctx:
        return frozenset(index.cells)
    if (key.unit, key.stress) in _AWAY:
        return index.away(ctx[0])
    sets = [index.toward(c) for c in ctx]
    out = sets[0]
    for s in sets[1:]:
        out = out & s
    return out


class _LRU:
    def __init__(self, maxsize: int = 8192):
        self._data: OrderedDict = OrderedDict()
        self._maxsize = maxsize

    def get(self, key):
        got = self._data.get(key)
        if got is not None:
            self._data.move_to_end(key)
        return got

    def put(self, key, value):
        self._data[key] = value
        if len(self._data) > self._maxsize:
            self._data.popitem(last=False)


@dataclass(eq=False)
class LanguageModel:
    alphabet: Alphabet
    tables: Dict[CondKey, CategoricalDist]
    epsilon: float
    alpha: float
    limits: ProsodicLimits
    quantization: QuantizationConfig = DEFAULT_QUANTIZATION
    transforms: Tuple = ()  # applied lazily, in order, by dist()
    _cache: _LRU = field(default_factory=_LRU, repr=False)

    @property
    def alphabet_version(self) -> str:
        return self.alphabet.version

    def generic_dist(self, key: CondKey) -> CategoricalDist:
        """The language-neutral distribution for one key."""
        index = _index_for(self.alphabet)
        adm = admissible_targets(self.alphabet, key)
        excluded = len(index.cells) - len(adm)
        if excluded > 0:
            p_adm = (1.0 - self.epsilon) / (len(adm) + 1)
            p_exc = self.epsilon / excluded
        else:
            p_adm = 1.0 / (len(adm) + 1)
            p_exc = 0.0
        exceptions = dict.fromkeys(adm, p_adm)
        exceptions[None] = p_adm
        return CategoricalDist(exceptions, index.support, p_exc)

    def dist(self, key: CondKey) -> CategoricalDist:
        """Stored table entry or generic fallback, through the transform stack."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        d = self.tables.get(key)
        if d is None:
            d = self.generic_dist(key)
        for tr in self.transforms:
            d = tr.apply(self, key, d)
        self._cache.put(key, d)
        return d


def generic_model(
    alphabet: Alphabet,
    epsilon: float = 0.05,
    limits: Optional[ProsodicLimits] = None,
    quantization: QuantizationConfig = DEFAULT_QUANTIZATION,
) -> LanguageModel:
    """Language-neutral model: no stored tables, pure generic fallback."""
    if not 0.0 <= epsilon < 1.0:
        raise ModelError(f"joining mass must satisfy 0 <= epsilon < 1, got {epsilon}")
    return LanguageModel(
        alphabet=alphabet, tables={}, epsilon=epsilon, alpha=0.0,
        limits=limits if limits is not None else ProsodicLimits.full(quantization.max_abs_units),
        quantization=quantization,
    )


# ---------------------------------------------------------------------------
# scoring


def factor_key(s: PhoneString, factor: Factor) -> Tuple[CondKey, Marker]:
    """(conditional key, target marker) of one plan factor."""
    ctx = tuple(None if i is None else s.phones[i].marker for i in factor.context)
    return CondKey(factor.unit, factor.stress, ctx), s.phones[factor.target].marker


def _prepare(model: LanguageModel, s, weights: StressWeights):
    if isinstance(s, PhoneString):
        phones = s.phones
    else:
        phones = tuple(s)
    validated = validate_string(phones, model.alphabet)
    collapsed = collapse_repeats(validated, model.quantization)
    parse = parse_syllables(collapsed)
    scores = [stress_score(sy, collapsed, weights, model.quantization) for sy in parse.syllables]
    classes = classify_stress(parse.syllables, scores)
    plan = dependency_plan(parse, classes)
    return collapsed, parse, classes, plan


def score(model: LanguageModel, s, weights: StressWeights = StressWeights()) -> float:
    """Log-probability of a phone string as a product of conditionals.

    Returns -inf when any factor's target has zero probability or any
    prosodic value falls outside the model's limits.
    """
    collapsed, _parse, _classes, plan = _prepare(model, s, weights)
    logp = 0.0
    for f in plan.factors:
        key, target = factor_key(collapsed, f)
        p = model.dist(key).prob(target)
        if p <= 0.0:
            return float("-inf")
        logp += math.log(p)
    per_phone = model.limits.log_mass()
    for phone in collapsed.phones:
        if not model.limits.contains(phone.prosody):
            return float("-inf")
        logp += per_phone
    return logp


# ---------------------------------------------------------------------------
# training


def _observed_limits(phones: Iterable[Phone]) -> ProsodicLimits:
    pvs = [p.prosody for p in phones]
    if not pvs:
        raise TrainingError("empty corpus")

    def iv(name):
        vals = [getattr(p, name) for p in pvs]
        return (min(vals), max(vals))

    return ProsodicLimits(
        R=iv("R"), T=iv("T"), D=iv("D"), L=iv("L"),
        N=frozenset(p.N for p in pvs), V=frozenset(p.V for p in pvs),
    )


def train(
    corpus: Iterable,
    alpha: float = 0.01,
    epsilon: float = 0.05,
    alphabet: Optional[Alphabet] = None,
    limits: Union[str, ProsodicLimits] = "observed",
    weights: StressWeights = StressWeights(),
    quantization: QuantizationConfig = DEFAULT_QUANTIZATION,
    skip_invalid: bool = False,
) -> LanguageModel:
    """Count-based estimation of the conditional tables.

    Each corpus item is a phone sequence (or a record with ``.phones``
    and ``.line``); every item is validated, collapsed, parsed,
    classified and planned, and (key, target) pairs are counted.
    Distributions are add-alpha smoothed relative frequencies over the
    alphabet cells plus null. Prosodic limits default to the observed
    min/max per dimension; pass a ProsodicLimits or "full" to override.
    """
    if alpha < 0:
        raise ModelError("alpha must be nonnegative")
    if not 0.0 <= epsilon < 1.0:
        raise ModelError(f"joining mass must satisfy 0 <= epsilon < 1, got {epsilon}")
    if alphabet is None:
        from .alphabet import default_alphabet
        alphabet = default_alphabet()
    base = generic_model(alphabet, epsilon, quantization=quantization)
    counts: Dict[CondKey, Counter] = {}
    seen_phones: List[Phone] = []
    n_strings = 0
    for index, item in enumerate(corpus, start=1):
        phones = getattr(item, "phones", item)
        line = getattr(item, "line", None)
        try:
            collapsed, _parse, _classes, plan = _prepare(base, phones, weights)
        except InvalidPhoneString as exc:
            if skip_invalid:
                continue
            where = f"line {line}" if line is not None else f"string {index}"
            raise TrainingError(f"invalid string at {where}: {exc}") from exc
        n_strings += 1
        seen_phones.extend(collapsed.phones)
        for f in plan.factors:
            key, target = factor_key(collapsed, f)
            counts.setdefault(key, Counter())[target] += 1
    if n_strings == 0:
        raise TrainingError("empty corpus")

    support = _index_for(alphabet).support
    s_size = len(support.targets)
    tables: Dict[CondKey, CategoricalDist] = {}
    for key in sorted(counts, key=CondKey.sort_key):
        c = counts[key]
        denom = sum(c.values()) + alpha * s_size
        tables[key] = CategoricalDist(
            {t: (n + alpha) / denom for t, n in c.items()}, support, alpha / denom)

    if limits == "observed":
        lim = _observed_limits(seen_phones)
    elif limits == "full":
        lim = ProsodicLimits.full(quantization.max_abs_units)
    elif isinstance(limits, ProsodicLimits):
        lim = limits
    else:
        raise ModelError(f"unknown limits policy {limits!r}")
    return LanguageModel(
        alphabet=alphabet, tables=tables, epsilon=epsilon, alpha=alpha,
        limits=lim, quantization=quantization,
    )


# ---------------------------------------------------------------------------
# sampling

_DESC = {StressClass.STRESSED, StressClass.MIDDLING_LTR}   # claim: next rank lower
_LEFT_DESC = {StressClass.UNSTRESSED, StressClass.MIDDLING_LTR}  # claim: prev rank higher


@lru_cache(maxsize=None)
def legal_stress_sequences(k: int) -> Tuple[Tuple[StressClass, ...], ...]:
    """All class sequences realizable by some strict stress ranking."""
    if k == 1:
        return ((StressClass.STRESSED,),)
    seqs: List[Tuple[StressClass, ...]] = []

    def extend(prefix: List[StressClass]):
        if len(prefix) == k:
            if prefix[-1] in (StressClass.STRESSED, StressClass.MIDDLING_LTR):
                seqs.append(tuple(prefix))
            return
        for c in StressClass:
            if not prefix:
                if c in (StressClass.STRESSED, StressClass.UNSTRESSED):
                    extend([c])
                continue
            # adjacent agreement: the left claim of c must restate the
            # right claim of prefix[-1] about the shared rank step
            if (prefix[-1] in _DESC) == (c in _LEFT_DESC):
                extend(prefix + [c])

    extend([])
    return tuple(seqs)


class _Resample(Exception):
    pass


_CLOSURE = Manner.CLOSURE


def _draw_prosody(limits: ProsodicLimits, rng: np.random.Generator) -> ProsodicVector:
    def iv(name):
        lo, hi = getattr(limits, name)
        return int(rng.integers(lo, hi + 1))

    def bit(name):
        allowed = sorted(getattr(limits, name))
        return allowed[int(rng.integers(len(allowed)))]

    return ProsodicVector(R=iv("R"), N=bit("N"), V=bit("V"), T=iv("T"), D=iv("D"), L=iv("L"))


def _realize_markers(model: LanguageModel, classes: Sequence[StressClass],
                     rng: np.random.Generator) -> List[Marker]:
    """Realize one string's markers in dependency order.

    Junction closures are generated by the unique syllable whose scheme
    targets them; inward chains grow geometrically and consume the
    junction the neighbor produced.
    """
    k = len(classes)
    junctions: List[Optional[Marker]] = [None] * (k + 1)
    onset_int: List[List[Marker]] = [[] for _ in range(k)]
    rhyme_int: List[List[Marker]] = [[] for _ in range(k)]
    nuclei: List[Optional[Marker]] = [None] * k

    def draw(unit, cls, ctx) -> Target:
        return model.dist(CondKey(unit, cls, ctx)).sample(rng)

    def draw_marker(unit, cls, ctx) -> Marker:
        for _ in range(16):
            t = draw(unit, cls, ctx)
            if t is not None:
                return t
        raise _Resample

    def branch_down(unit, cls, start: Marker) -> List[Marker]:
        # outward from the nucleus side until a closure terminates the branch;
        # null draws delete the slot and redraw from the same context
        out: List[Marker] = []
        cur = start
        for _ in range(64):
            t = draw(unit, cls, (cur,))
            if t is None:
                continue
            out.append(t)
            cur = t
            if t.manner is _CLOSURE:
                return out
        raise _Resample

    def branch_up(unit, cls, start: Marker, cap: int = 4) -> Tuple[List[Marker], Marker]:
        # inward interior of geometric length, conditioned on the outer side
        interior: List[Marker] = []
        cur = start
        for _ in range(cap):
            if rng.random() < 0.5:
                break
            t = None
            for _ in range(16):
                t = draw(unit, cls, (cur,))
                if t is not None:
                    break
            if t is None:
                break
            interior.append(t)
            cur = t
        return interior, cur

    S, U = StressClass.STRESSED, StressClass.UNSTRESSED
    LTR, RTL = StressClass.MIDDLING_LTR, StressClass.MIDDLING_RTL

    for i, c in enumerate(classes):
        if c is not S:
            continue
        nuclei[i] = draw_marker(Unit.NUCLEUS, S, (None,))
        left = branch_down(Unit.ONSET, S, nuclei[i])
        right = branch_down(Unit.RHYME, S, nuclei[i])
        onset_int[i] = list(reversed(left[:-1]))
        junctions[i] = left[-1]
        rhyme_int[i] = right[:-1]
        junctions[i + 1] = right[-1]
    for i, c in enumerate(classes):
        if c is not LTR:
            continue
        base = junctions[i]
        if base is None:
            raise _Resample
        interior, cur = branch_up(Unit.ONSET, LTR, base)
        nuclei[i] = draw_marker(Unit.NUCLEUS, LTR, (cur,))
        right = branch_down(Unit.RHYME, LTR, nuclei[i])
        onset_int[i] = interior
        rhyme_int[i] = right[:-1]
        junctions[i + 1] = right[-1]
    for i in range(k - 1, -1, -1):
        if classes[i] is not RTL:
            continue
        base = junctions[i + 1]
        if base is None:
            raise _Resample
        interior, cur = branch_up(Unit.RHYME, RTL, base)
        nuclei[i] = draw_marker(Unit.NUCLEUS, RTL, (cur,))
        left = branch_down(Unit.ONSET, RTL, nuclei[i])
        rhyme_int[i] = list(reversed(interior))
        onset_int[i] = list(reversed(left[:-1]))
        junctions[i] = left[-1]
    closures = _index_for(model.alphabet).closures
    for i, c in enumerate(classes):
        if c is not U:
            continue
        if junctions[i] is None:
            if i != 0 or not closures:
                raise _Resample
            junctions[i] = closures[int(rng.integers(len(closures)))]
        if junctions[i + 1] is None:
            raise _Resample
        interior_on, left_in = branch_up(Unit.ONSET, U, junctions[i])
        interior_rh, right_in = branch_up(Unit.RHYME, U, junctions[i + 1])
        nuclei[i] = draw_marker(Unit.NUCLEUS, U, (left_in, right_in))
        onset_int[i] = interior_on
        rhyme_int[i] = list(reversed(interior_rh))

    markers: List[Marker] = [junctions[0]]
    for i in range(k):
        markers.extend(onset_int[i])
        markers.append(nuclei[i])
        markers.extend(rhyme_int[i])
        markers.append(junctions[i + 1])
    return markers


def sample_with_rng(
    model: LanguageModel,
    max_syllables: int,
    rng: np.random.Generator,
    weights: StressWeights = StressWeights(),
    max_retries: int = 500,
) -> PhoneString:
    """One string drawn with an existing generator (rejected-and-resampled)."""
    if max_syllables < 1:
        raise ModelError("max_syllables must be at least 1")
    for _ in range(max_retries):
        k = int(rng.integers(1, max_syllables + 1))
        options = legal_stress_sequences(k)
        classes = options[int(rng.integers(len(options)))]
        try:
            markers = _realize_markers(model, classes, rng)
        except _Resample:
            continue
        phones = [Phone(m, _draw_prosody(model.limits, rng)) for m in markers]
        if string_violations(phones, model.alphabet):
            continue
        collapsed = collapse_repeats(PhoneString(tuple(phones)), model.quantization)
        parse = parse_syllables(collapsed)
        scores = [stress_score(sy, collapsed, weights, model.quantization) for sy in parse.syllables]
        if classify_stress(parse.syllables, scores) == list(classes):
            return collapsed
    raise SampleError(f"retry budget exhausted after {max_retries} attempts")


def sample(
    model: LanguageModel,
    max_syllables: int = 3,
    seed: int = 0,
    weights: StressWeights = StressWeights(),
) -> PhoneString:
    """Deterministic single-string sample for a seed (PCG64 stream)."""
    return sample_with_rng(model, max_syllables, np.random.default_rng(seed), weights)


# ---------------------------------------------------------------------------
# serialization

FORMAT_VERSION = "phonospace-model-2"
# a version-1 document is a version-2 document whose entries carry no floor
READABLE_FORMATS = ("phonospace-model-1", FORMAT_VERSION)


def _target_to_json(t: Target):
    if t is None:
        return {"null": True}
    return {"m": t.manner.value, "fb": t.front_back.value,
            "oc": t.open_close.value, "pl": t.place.value}


def _target_from_json(obj, alphabet: Alphabet) -> Target:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"bad target entry: {obj!r}")
    if obj.get("null"):
        return None
    try:
        marker = Marker.from_ascii(f"{obj['m']}:{obj['fb']}:{obj['oc']}:{obj['pl']}")
    except KeyError as exc:
        raise ModelFormatError(f"target entry missing field {exc}") from None
    except Exception as exc:
        raise ModelFormatError(str(exc)) from None
    if marker not in alphabet:
        raise ModelFormatError(f"marker {marker!r} not in alphabet {alphabet.version!r}")
    return marker


def model_to_json(model: LanguageModel) -> dict:
    q = model.quantization
    full = _index_for(model.alphabet).support.targets
    tables = []
    for key in sorted(model.tables, key=CondKey.sort_key):
        d = model.dist(key)  # through the transform stack
        entry = {
            "key": {
                "unit": key.unit.value, "stress": key.stress.value,
                "context": [_target_to_json(c) for c in key.context],
            },
        }
        if d.support() == full:
            listed = sorted(d.exceptions.items(), key=lambda e: _target_sort_key(e[0]))
            entry["dist"] = [[_target_to_json(t), repr(p)] for t, p in listed]
            entry["floor"] = repr(d.floor)
        else:
            entry["dist"] = [[_target_to_json(t), repr(p)] for t, p in d.entries]
        tables.append(entry)
    return {
        "format": FORMAT_VERSION,
        "alphabet_version": model.alphabet_version,
        "epsilon": repr(model.epsilon),
        "alpha": repr(model.alpha),
        "quantization": {
            "reference_duration_sec": repr(q.reference_duration_sec),
            "reference_pitch_hz": repr(q.reference_pitch_hz),
            "reference_loudness": repr(q.reference_loudness),
            "units_per_octave_d": q.units_per_octave_d,
            "units_per_octave_t": q.units_per_octave_t,
            "units_per_decade_l": q.units_per_decade_l,
            "units_per_nat_r": q.units_per_nat_r,
            "max_abs_units": q.max_abs_units,
        },
        "limits": {
            "R": list(model.limits.R), "T": list(model.limits.T),
            "D": list(model.limits.D), "L": list(model.limits.L),
            "N": sorted(model.limits.N), "V": sorted(model.limits.V),
        },
        "tables": tables,
    }


def save_model(model: LanguageModel, destination) -> None:
    """Canonical single-line JSON document (byte-stable round trips).

    A model carrying lazy transforms writes its stored keys through the
    stack; unseen keys revert to the untransformed generic fallback when
    the file is loaded again.
    """
    text = json.dumps(model_to_json(model), separators=(",", ":"), ensure_ascii=True) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_model(source, alphabet: Alphabet) -> LanguageModel:
    """Parse and validate a saved model against the given alphabet."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") not in READABLE_FORMATS:
        raise ModelFormatError(f"unknown model format {obj.get('format')!r}"
                               if isinstance(obj, dict) else "model document is not an object")
    if obj.get("alphabet_version") != alphabet.version:
        raise AlphabetMismatchError(
            f"model expects alphabet {obj.get('alphabet_version')!r}, got {alphabet.version!r}")
    try:
        epsilon = float(obj["epsilon"])
        alpha = float(obj["alpha"])
        qj = obj["quantization"]
        quantization = QuantizationConfig(
            reference_duration_sec=float(qj["reference_duration_sec"]),
            reference_pitch_hz=float(qj["reference_pitch_hz"]),
            reference_loudness=float(qj["reference_loudness"]),
            units_per_octave_d=int(qj["units_per_octave_d"]),
            units_per_octave_t=int(qj["units_per_octave_t"]),
            units_per_decade_l=int(qj["units_per_decade_l"]),
            units_per_nat_r=int(qj["units_per_nat_r"]),
            max_abs_units=int(qj["max_abs_units"]),
        )
        lj = obj["limits"]
        limits = ProsodicLimits(
            R=tuple(lj["R"]), T=tuple(lj["T"]), D=tuple(lj["D"]), L=tuple(lj["L"]),
            N=frozenset(lj["N"]), V=frozenset(lj["V"]),
        )
        full = _index_for(alphabet).support
        tables: Dict[CondKey, CategoricalDist] = {}
        units = {u.value: u for u in Unit}
        stresses = {c.value: c for c in StressClass}
        for entry in obj["tables"]:
            kj = entry["key"]
            key = CondKey(
                units[kj["unit"]], stresses[kj["stress"]],
                tuple(_target_from_json(c, alphabet) for c in kj["context"]),
            )
            if key in tables:
                raise ModelFormatError(f"duplicate key {key!r}")
            listed = [(_target_from_json(t, alphabet), float(p)) for t, p in entry["dist"]]
            # a floor implies the full support; so does a (version 1) listing of every target
            full_support = "floor" in entry or len(listed) == len(full.targets)
            tables[key] = CategoricalDist(listed, full if full_support else None,
                                          float(entry.get("floor", 0.0)))
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from None
    if not 0.0 <= epsilon < 1.0 or alpha < 0:
        raise ModelFormatError("epsilon/alpha out of range")
    return LanguageModel(
        alphabet=alphabet, tables=tables, epsilon=epsilon, alpha=alpha,
        limits=limits, quantization=quantization,
    )
