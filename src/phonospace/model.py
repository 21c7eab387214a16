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
import operator
import sys
import zlib
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, lru_cache, reduce
from itertools import accumulate, compress, repeat
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary, ref

from .alphabet import (
    DEFAULT_QUANTIZATION,
    MAX_ABS_UNITS,
    Alphabet,
    Manner,
    Marker,
    Phone,
    ProsodicVector,
    QuantizationConfig,
    UnknownSymbolError,
    marker_from_record,
    marker_to_record,
)
from .corpus import open_text
from .prng import Pcg64, Rng
from .sonority import DISTANCES, STEP_RULE, PartialOrdering, StepDimension
from .syllabifier import (
    ABOVE,
    InvalidPhoneString,
    PhoneString,
    StressClass,
    StressWeights,
    Unit,
    Factor,
    parse_and_plan,
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


class CondKey(NamedTuple):
    """Key of one conditional distribution.

    Context is the ordered tuple of conditioning markers; None slots are
    the null phone. Unstressed-nucleus keys carry the two adjacent
    phones, every other key a single context entry. A plain tuple, so
    hashing and equality run in C.
    """

    unit: Unit
    stress: StressClass
    context: Tuple[Target, ...]

    def sort_key(self) -> tuple:
        return (
            _DECLARED[self.unit], _DECLARED[self.stress],
            len(self.context), tuple(map(_target_sort_key, self.context)),
        )


# each unit's and each stress class's position in its enum's declaration
_DECLARED = {m: i for enum in (Unit, StressClass) for i, m in enumerate(enum)}


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
        if not abs(total - 1.0) <= 1e-9:  # also rejects a NaN sum
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

    def sample(self, rng: Rng) -> Target:
        targets = self._support.targets
        cum = self._cum
        if cum is None:  # the left-to-right sums of the dense entries, as packed doubles
            cum = self._cum = array("d", accumulate(
                map(self.exceptions.get, targets, repeat(self.floor))))
        i = bisect_right(cum, float(rng.random()))
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
    """The prosodic law: uniform over per-dimension intervals (inclusive) and bit sets."""

    R: Tuple[int, int] = (-64, 64)
    T: Tuple[int, int] = (-64, 64)
    D: Tuple[int, int] = (-64, 64)
    L: Tuple[int, int] = (-64, 64)
    N: frozenset = frozenset({0, 1})
    V: frozenset = frozenset({0, 1})

    def __post_init__(self):
        allowed = {}  # per field: the values the law allows
        for f in fields(self):
            name = f.name
            if type(f.default) is frozenset:  # a bit set
                bits = frozenset(getattr(self, name))
                if not bits or not bits <= {0, 1} or not all(type(b) is int for b in bits):
                    raise ValueError(f"{name} must allow a nonempty subset of {{0,1}}")
                object.__setattr__(self, name, bits)
                allowed[name] = tuple(sorted(bits))
            else:  # an inclusive interval
                lo, hi = getattr(self, name)
                for bound in (lo, hi):
                    if isinstance(bound, float) and not math.isfinite(bound):
                        raise ValueError(f"{name} interval has a non-finite bound")
                    # log_mass counts hi - lo + 1 values, which only integer bounds make a count
                    if type(bound) is not int:  # bool is an int subclass
                        raise ValueError(f"{name} interval has a non-integer bound {bound!r}")
                    # so every value the law allows is one a ProsodicVector holds
                    if abs(bound) > MAX_ABS_UNITS:
                        raise ValueError(f"{name} interval bound {bound} outside "
                                         f"[-{MAX_ABS_UNITS}, {MAX_ABS_UNITS}]")
                if lo > hi:
                    raise ValueError(f"{name} interval has lo > hi")
                allowed[name] = range(lo, hi + 1)
        # reordered as ProsodicVector's fields, the order draw reads the rng in
        object.__setattr__(self, "_allowed", {f.name: allowed[f.name] for f in fields(ProsodicVector)})

    @classmethod
    def full(cls, max_abs: int = 64) -> "ProsodicLimits":
        iv = (-max_abs, max_abs)
        return cls(R=iv, T=iv, D=iv, L=iv)

    def contains(self, pv: ProsodicVector) -> bool:
        # both in field order; range membership is exact for the integers a ProsodicVector holds
        return all(map(operator.contains, self._allowed.values(), vars(pv).values()))

    def log_mass(self) -> float:
        """Log of one phone's uniform prosodic factor inside the limits."""
        out = 0.0
        for f in fields(self):
            out -= math.log(len(self._allowed[f.name]))
        return out

    def draw(self, rng: Rng) -> ProsodicVector:
        """One phone's prosody from the law ``log_mass`` charges.

        The rng is read in ``ProsodicVector`` field order: R, N, V, T, D, L.
        ``rng.integers(n)`` reads what ``rng.integers(lo, lo + n)`` would, since
        both depend only on the span. Every allowed value is an int that a
        vector may hold, so the fields are set without its ``__post_init__``.
        """
        pv = object.__new__(ProsodicVector)
        vars(pv).update([(name, values[rng.integers(len(values))])
                         for name, values in self._allowed.items()])
        return pv

    @classmethod
    def observed(cls, prosodies: Iterable[ProsodicVector]) -> "ProsodicLimits":
        """The smallest limits that contain every given vector (at least one), read in one pass."""
        names = [f.name for f in fields(ProsodicVector)]
        seen = [set() for _ in names]  # per field, at most the 129 values a vector can hold
        for pv in prosodies:
            for values, v in zip(seen, vars(pv).values()):
                values.add(v)
        # a bit set is the values of its (min, max) pair, as N and V hold only 0 or 1
        return cls(**{name: (min(values), max(values)) for name, values in zip(names, seen)})

    def to_json(self) -> dict:
        """The limits as saved in a model file and shown by ``info``, in field order."""
        # an interval (lo, hi) has lo <= hi, so sorting keeps it as it is
        return {f.name: sorted(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "ProsodicLimits":
        """Inverse of ``to_json``: each field's JSON list as a tuple or a frozenset."""
        return cls(**{f.name: type(f.default)(obj[f.name]) for f in fields(cls)})


# ---------------------------------------------------------------------------
# direction structure of the factor schemes

# keys whose target sits one step farther from the nucleus than the context
_AWAY = {(unit, cls) for cls, claims in ABOVE.items()
         for unit, above in zip((Unit.ONSET, Unit.RHYME), claims) if above}


def following_context_slot(key: CondKey) -> Optional[int]:
    """Index of the context entry that follows the target in time, if any.

    It is read from the key's unit and class alone, so it may lie past a short context.
    """
    left, right = ABOVE[key.stress]
    if key.unit is Unit.ONSET:
        return 0 if left else None
    if key.unit is Unit.RHYME:
        return None if right else 0
    # a nucleus depends on its inward neighbours, left to right
    return None if right else int(not left)


_RankClasses = Dict[object, Tuple[int, int]]


def _rank_classes(cells: Sequence[Marker], dim: StepDimension) -> Tuple[_RankClasses, _RankClasses]:
    """Per value of one dimension, the cells one step can reach, in each direction.

    For a value v the away entry holds the cells t whose relation to v,
    cmp(t, v), does not rise, and the subset of those where it does not
    fall strictly either; the toward entry does the same for cmp(v, t).
    Each is a bit mask over ``cells``, bit i standing for ``cells[i]``.
    """
    groups: Dict[object, int] = dict.fromkeys(dim.values, 0)
    for i, c in enumerate(cells):
        groups[getattr(c, dim.attr)] |= 1 << i

    flat = dim.allowed - {PartialOrdering.LESS}

    def classes(rel_of) -> Tuple[int, int]:
        rels = {w: rel_of(w) for w in dim.values}
        # the groups are disjoint, so their sum is their union
        return (sum(groups[w] for w, r in rels.items() if r in dim.allowed),
                sum(groups[w] for w, r in rels.items() if r in flat))

    away = {v: classes(lambda w: dim.cmp(w, v)) for v in dim.values}
    toward = {v: classes(lambda w: dim.cmp(v, w)) for v in dim.values}
    return away, toward


def _row(ctx: Marker, per_dim: Sequence[Tuple[str, _RankClasses]]) -> int:
    """Cells that rise in no dimension, minus those that fall in none, as a mask."""
    no_rise = no_fall = -1  # every bit set
    for attr, classes in per_dim:
        rise_free, fall_free = classes[getattr(ctx, attr)]
        no_rise &= rise_free
        no_fall &= fall_free
    return no_rise & ~no_fall


class _AdmissibilityIndex:
    """Single-step admissibility of one alphabet's cells, the generic law per row,
    and the tables through which model files name targets.

    A row is an ``int`` bit mask over the canonical ``cells``, bit i standing
    for ``cells[i]``. Rows come from per-dimension rank classes of the step
    rule in ``sonority.STEP_RULE`` and are memoized per context marker; the
    row of a null context is ``full``; a two-context key ANDs both rows.
    The generic law is built once per (row, epsilon), from its smaller side.
    ``members`` lists a row's cells; ``admissible_targets`` builds a frozenset of them on demand.
    """

    def __init__(self, alphabet: Alphabet):
        cells = self.cells = tuple(alphabet)  # canonical order
        full = self.full = (1 << len(cells)) - 1
        self.closures = tuple(m for m in cells if m.manner is Manner.CLOSURE)
        support = self.support = Support((None,) + cells)
        per_dim = [(dim.attr, _rank_classes(cells, dim)) for dim in STEP_RULE]
        away_classes = [(attr, away) for attr, (away, _) in per_dim]
        toward_classes = [(attr, toward) for attr, (_, toward) in per_dim]
        # per dimension, value -> its distance to each cell
        dimension_rows = [(attr, {v: [to[getattr(c, attr)] for c in cells] for v, to in table.items()})
                          for attr, table in DISTANCES]

        def members(row: int) -> Iterator[Marker]:
            """The row's cells, in canonical order."""
            return compress(cells, map("1".__eq__, bin(row)[:1:-1]))

        @cache
        def away_row(ctx: Marker) -> int:
            """Cells t with ``is_diphthongal_step(ctx, t)``, as a mask."""
            return _row(ctx, away_classes)

        @cache
        def toward_row(ctx: Marker) -> int:
            """Cells t with ``is_diphthongal_step(t, ctx)``, as a mask."""
            return _row(ctx, toward_classes)

        @cache
        def distances(ctx: Marker) -> Tuple[int, ...]:
            """``variation.ordinal_distance(ctx, t)`` for every cell t, in canonical order."""
            rows = [by_value[getattr(ctx, attr)] for attr, by_value in dimension_rows]
            return tuple(map(sum, zip(*rows)))

        @cache
        def generic(row: int, epsilon: float) -> CategoricalDist:
            """Uniform over the row plus the null phone, the joining mass spread over the rest."""
            admitted = row.bit_count()
            excluded = len(cells) - admitted
            p_adm = (1.0 - epsilon if excluded else 1.0) / (admitted + 1)
            p_exc = epsilon / excluded if excluded else 0.0
            # the floor is the more common probability, ties to the smaller, as the constructor picks
            if (admitted + 1, -p_adm) > (excluded, -p_exc):
                return CategoricalDist(dict.fromkeys(members(full & ~row), p_exc), support, p_adm)
            exceptions = dict.fromkeys(members(row), p_adm)
            exceptions[None] = p_adm
            return CategoricalDist(exceptions, support, p_exc)

        self.members, self.away_row, self.toward_row = members, away_row, toward_row
        self.distances, self.generic = distances, generic

    def row(self, key: CondKey) -> int:
        """The key's admissible cells: null context slots impose no constraint."""
        contexts = [c for c in key.context if c is not None]
        if contexts and (key.unit, key.stress) in _AWAY:
            return self.away_row(contexts[0])
        return reduce(operator.and_, map(self.toward_row, contexts), self.full)

    # each codec table is built on its first use, so a verb builds only the ones it reads

    @cached_property
    def positions(self) -> Dict[Target, int]:
        """Each support target's canonical position, by which a model file names it."""
        return {t: i for i, t in enumerate(self.support.targets)}

    @cached_property
    def digest(self) -> str:
        """CRC-32 of the support's records in canonical order: the cells the positions name.

        A checksum, not hashlib's sha256: importing hashlib maps OpenSSL, 3.5 MB
        of resident memory in every process that loads or saves a model.
        """
        return f"{zlib.crc32(_dumps([_record(t) for t in self.support.targets]).encode()):08x}"


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
    admissible on top of the returned markers. The set is built on each call.
    """
    index = _index_for(alphabet)
    return frozenset(index.members(index.row(key)))


def _smoothing(epsilon, alpha) -> Tuple[float, float]:
    """``epsilon`` and ``alpha`` as floats; ModelError unless each is an int or a float in range."""
    for name, value in (("epsilon", epsilon), ("alpha", alpha)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ModelError(f"field {name!r} must be an int or a float, got {value!r}")
    if not 0.0 <= epsilon < 1.0:
        raise ModelError(f"joining mass must satisfy 0 <= epsilon < 1, got {epsilon}")
    if not 0 <= alpha <= sys.float_info.max:  # also rejects NaN and integers too large for a float
        raise ModelError(f"alpha must be finite and nonnegative, got {alpha}")
    return float(epsilon), float(alpha)


@dataclass(eq=False)
class LanguageModel:
    alphabet: Alphabet
    tables: Dict[CondKey, CategoricalDist]
    epsilon: float
    alpha: float
    limits: ProsodicLimits
    quantization: QuantizationConfig = DEFAULT_QUANTIZATION
    transforms: Tuple = ()  # applied lazily, in order, by dist()
    # per stored key, what training counted of each target, and a model file holds them
    # instead of the tables. Only ``train``, ``load_model`` and ``variation.apply`` set
    # them, each on a model whose tables are these counts smoothed by ``_smoothed``; any
    # other model, a ``dataclasses.replace`` copy too, has none and saves its tables.
    counts: Dict[CondKey, Dict[Target, int]] = field(default_factory=dict, init=False)
    _memo: Callable[[CondKey], CategoricalDist] = field(init=False, repr=False)

    def __post_init__(self):
        # epsilon keys the shared generic dists, so it is checked before any lookup; both
        # are stored as floats, so a saved model reloads and re-saves byte for byte
        self.epsilon, self.alpha = _smoothing(self.epsilon, self.alpha)
        if self.tables:  # every context marker and target is an alphabet cell or the null phone
            support = _index_for(self.alphabet).support
            for key, d in self.tables.items():
                # a dist over the index's own support names nothing else
                named = key.context if d._support is support else key.context + d.support()
                if not support.members.issuperset(named):
                    bad = next(t for t in named if t not in support.members)
                    raise ModelError(f"table {key!r} names {bad!r}, "
                                     f"not a cell of alphabet {self.alphabet.version!r}")
        # per instance, so a copy made by dataclasses.replace starts empty;
        # perfbench/run.py's DIST_CACHE_SIZE restates the bound. The memo reaches
        # its model through a weak reference, so the two form no reference cycle
        # and a dropped model is freed at once, without the cyclic collector.
        model = ref(self)
        self._memo = lru_cache(maxsize=8192)(lambda key: model()._build(key))

    def generic_dist(self, key: CondKey) -> CategoricalDist:
        """The language-neutral distribution for one key, shared by every key with its row."""
        index = _index_for(self.alphabet)
        return index.generic(index.row(key), self.epsilon)

    def dist(self, key: CondKey) -> CategoricalDist:
        """Stored table entry or generic fallback, through the transform stack."""
        return self._memo(key)

    def _build(self, key: CondKey) -> CategoricalDist:
        d = self.tables.get(key)
        if d is None:
            d = self.generic_dist(key)
        for tr in self.transforms:
            d = tr.apply(self, key, d)
        return d


def generic_model(
    alphabet: Alphabet,
    epsilon: float = 0.05,
    limits: Optional[ProsodicLimits] = None,
    quantization: QuantizationConfig = DEFAULT_QUANTIZATION,
) -> LanguageModel:
    """Language-neutral model: no stored tables, pure generic fallback."""
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


def plan_factors(phones: Iterable[Phone], alphabet: Optional[Alphabet],
                 weights: StressWeights = StressWeights(), cfg: QuantizationConfig = DEFAULT_QUANTIZATION):
    """(collapsed string, stress classes, lazy (key, target) pairs of its plan): the one factor walk.

    ``score`` charges the pairs and ``train`` counts them. The string is validated at the call.
    """
    collapsed, _parse, _scores, classes, plan = parse_and_plan(phones, alphabet, weights, cfg)
    return collapsed, classes, (factor_key(collapsed, f) for f in plan.factors)


def score(model: LanguageModel, s, weights: StressWeights = StressWeights()) -> float:
    """Log-probability of a phone string as a product of conditionals.

    Returns -inf when any factor's target has zero probability or any
    prosodic value falls outside the model's limits.
    """
    collapsed, _classes, pairs = plan_factors(s, model.alphabet, weights, model.quantization)
    logp = 0.0
    for key, target in pairs:
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
    alphabet cells plus null; the model keeps the counts, which is what
    ``save_model`` writes. Prosodic limits default to the observed
    min/max per dimension; pass a ProsodicLimits or "full" to override.
    """
    epsilon, alpha = _smoothing(epsilon, alpha)  # before the corpus is read
    if limits == "full":
        limits = ProsodicLimits.full(quantization.max_abs_units)
    elif limits != "observed" and not isinstance(limits, ProsodicLimits):
        raise ModelError(f"unknown limits policy {limits!r}")
    if alphabet is None:
        from .alphabet import default_alphabet
        alphabet = default_alphabet()
    counts: Dict[CondKey, Counter] = {}

    def prosodies():  # counts each valid string's factors and yields its collapsed prosodies
        for index, item in enumerate(corpus, start=1):
            phones = getattr(item, "phones", item)
            line = getattr(item, "line", None)
            try:
                collapsed, _classes, pairs = plan_factors(phones, alphabet, weights, quantization)
            except InvalidPhoneString as exc:
                if skip_invalid:
                    continue
                where = f"line {line}" if line is not None else f"string {index}"
                raise TrainingError(f"invalid string at {where}: {exc}") from exc
            for key, target in pairs:
                counts.setdefault(key, Counter())[target] += 1
            yield from (p.prosody for p in collapsed.phones)
        if not counts:  # a valid string's plan targets its boundary closures, so it has a factor
            raise TrainingError("empty corpus")
    observed = ProsodicLimits.observed(prosodies())

    support = _index_for(alphabet).support
    tables = {key: _smoothed(counts[key], alpha, support)
              for key in sorted(counts, key=CondKey.sort_key)}
    model = LanguageModel(
        alphabet=alphabet, tables=tables, epsilon=epsilon, alpha=alpha,
        limits=observed if limits == "observed" else limits, quantization=quantization,
    )
    model.counts = counts
    return model


def _smoothed(counts: Dict[Target, int], alpha: float, support: Support) -> CategoricalDist:
    """One key's add-alpha table: (n_t + alpha) / (N + alpha * S), floor alpha / (N + alpha * S).

    N is the key's total count and S the size of the support. ``train`` and
    ``load_model`` both build tables here, so a reloaded table is the same floats.
    """
    denom = sum(counts.values()) + alpha * len(support.targets)
    return CategoricalDist({t: (n + alpha) / denom for t, n in counts.items()}, support,
                           alpha / denom)


# ---------------------------------------------------------------------------
# sampling

# the classes that may follow each class: the next left claim negates this right claim
_NEXT = {c: [n for n in StressClass if ABOVE[n][0] != ABOVE[c][1]] for c in StressClass}


@lru_cache(maxsize=None)
def legal_stress_sequences(k: int) -> Tuple[Tuple[StressClass, ...], ...]:
    """All class sequences realizable by some strict stress ranking.

    They come in lexicographic order of the class declaration; the sampler
    picks one by index.
    """
    seqs: List[Tuple[StressClass, ...]] = []

    def extend(prefix: List[StressClass]):
        if len(prefix) == k:
            if ABOVE[prefix[-1]][1]:  # the string end ranks below the last syllable
                seqs.append(tuple(prefix))
            return
        for c in _NEXT[prefix[-1]]:
            extend(prefix + [c])

    for c in StressClass:
        if ABOVE[c][0] == ABOVE[c][1]:  # the first syllable claims the same on both sides
            extend([c])
    return tuple(seqs)


_CLOSURE = Manner.CLOSURE
_NULL_REDRAWS = 16  # null draws a marker draw redraws before it gives up
_INWARD_CAP = 4  # longest interior an inward side grows
_OUTWARD_DRAWS = 64  # draws an outward side may take to reach its closure
_MAX_ATTEMPTS = 500  # realizations a sample tries before it gives up
# visit rank per class; right-to-left middling syllables are visited from the right
_VISIT = {StressClass.STRESSED: 0, StressClass.MIDDLING_LTR: 1,
          StressClass.MIDDLING_RTL: 2, StressClass.UNSTRESSED: 3}


def _realize_markers(model: LanguageModel, classes: Sequence[StressClass], rng: Rng
                     ) -> Optional[Tuple[List[Marker], List[Tuple[CondKey, Target]]]]:
    """Realize one string's markers, one syllable at a time, or None when they cannot be.

    Beside the markers it returns every (key, target) pair it drew, in
    draw order, null draws included.

    Syllables are visited stressed first, then middling left-to-right ones
    from the left, middling right-to-left ones from the right, then
    unstressed ones. A side (onset or rhyme) is outward when its keys are
    in ``_AWAY``, the set ``admissible_targets`` reads, and inward
    otherwise. Inward sides grow geometrically from the junction closures
    that neighbours made earlier; the nucleus is drawn from their inner
    ends; outward sides grow from the nucleus to the closure that becomes
    their junction. An inward side faces a higher-ranked neighbour, visited
    earlier, whose facing side is outward; only the string-initial junction
    has none, and it is drawn uniformly from the closures.
    """
    k = len(classes)
    junctions: List[Optional[Marker]] = [None] * (k + 1)
    # per side, keyed by (unit, junction slot): its interior from the nucleus outward
    interiors: Dict[Tuple[Unit, int], List[Marker]] = {}
    nuclei: List[Optional[Marker]] = [None] * k
    closures = _index_for(model.alphabet).closures
    drawn: List[Tuple[CondKey, Target]] = []

    def draw(unit, cls, ctx) -> Target:
        key = CondKey(unit, cls, ctx)
        t = model.dist(key).sample(rng)
        drawn.append((key, t))
        return t

    def draw_marker(unit, cls, ctx) -> Optional[Marker]:
        # a null draw deletes the slot and redraws from the same context
        for _ in range(_NULL_REDRAWS):
            t = draw(unit, cls, ctx)
            if t is not None:
                return t
        return None

    order = sorted(range(k), key=lambda i: (
        _VISIT[classes[i]], -i if classes[i] is StressClass.MIDDLING_RTL else i))
    for i in order:
        cls = classes[i]
        sides = ((Unit.ONSET, i), (Unit.RHYME, i + 1))
        inward = [(unit, j) for unit, j in sides if (unit, cls) not in _AWAY]
        ends = []
        for unit, j in inward:
            cur, grown = junctions[j], []
            if cur is None:  # the string-initial junction
                if not closures:
                    return None
                cur = junctions[j] = closures[int(rng.integers(len(closures)))]
            for _ in range(_INWARD_CAP):
                if rng.random() < 0.5:
                    break
                t = draw_marker(unit, cls, (cur,))
                if t is None:
                    break
                grown.append(t)
                cur = t
            interiors[unit, j] = grown[::-1]
            ends.append(cur)
        nucleus = nuclei[i] = draw_marker(Unit.NUCLEUS, cls, tuple(ends) or (None,))
        if nucleus is None:
            return None
        for unit, j in sides:
            if (unit, cls) not in _AWAY:
                continue
            cur, grown = nucleus, []
            for _ in range(_OUTWARD_DRAWS):
                t = draw(unit, cls, (cur,))
                if t is not None:
                    grown.append(t)
                    cur = t
                    if t.manner is _CLOSURE:
                        break
            else:
                return None
            junctions[j] = grown.pop()
            interiors[unit, j] = grown

    markers: List[Marker] = [junctions[0]]
    for i in range(k):
        markers.extend(reversed(interiors[Unit.ONSET, i]))
        markers.append(nuclei[i])
        markers.extend(interiors[Unit.RHYME, i + 1])
        markers.append(junctions[i + 1])
    return markers, drawn


def sample_with_rng(
    model: LanguageModel,
    max_syllables: int,
    rng: Rng,
    weights: StressWeights = StressWeights(),
) -> PhoneString:
    """One string drawn with an existing generator (rejected-and-resampled)."""
    if type(max_syllables) is not int or max_syllables < 1:  # bool is an int subclass
        raise ModelError(f"max_syllables must be an integer of at least 1, got {max_syllables!r}")
    for _ in range(_MAX_ATTEMPTS):
        k = int(rng.integers(1, max_syllables + 1))
        options = legal_stress_sequences(k)
        classes = options[int(rng.integers(len(options)))]
        realized = _realize_markers(model, classes, rng)
        if realized is None:
            continue
        phones = [Phone(m, model.limits.draw(rng)) for m in realized[0]]
        try:
            collapsed, got, _pairs = plan_factors(phones, model.alphabet, weights, model.quantization)
        except InvalidPhoneString:
            continue
        if got == list(classes):
            return collapsed
    raise SampleError(f"retry budget exhausted after {_MAX_ATTEMPTS} attempts")


def sample(
    model: LanguageModel,
    max_syllables: int = 3,
    seed: int = 0,
    weights: StressWeights = StressWeights(),
) -> PhoneString:
    """Deterministic single-string sample for a seed (numpy's PCG64 stream)."""
    return sample_with_rng(model, max_syllables, Pcg64(seed), weights)


# ---------------------------------------------------------------------------
# serialization

FORMAT_VERSION = "phonospace-model-4"
# formats 1-3 name each cell by a record of its attributes and still load: a
# version-3 document is a version-2 one with a "transforms" stack before its tables,
# and a version-1 document is a version-2 one whose entries carry no floor
_V1, _V2, _V3 = (f"phonospace-model-{v}" for v in (1, 2, 3))
READABLE_FORMATS = (_V1, _V2, _V3, FORMAT_VERSION)


def _target_from_json(obj, alphabet: Alphabet) -> Target:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"bad target entry: {obj!r}")
    if obj.get("null"):
        return None
    try:
        marker = marker_from_record(obj)
    except UnknownSymbolError as exc:
        raise ModelFormatError(exc.args[0]) from None
    except KeyError as exc:
        raise ModelFormatError(f"target entry missing field {exc}") from None
    except Exception as exc:
        raise ModelFormatError(str(exc)) from None
    if marker not in alphabet:
        raise ModelFormatError(f"marker {marker!r} not in alphabet {alphabet.version!r}")
    return marker


def _record(t: Target) -> dict:
    """A target's attribute record, which names it in a version 1-3 document and in the support digest."""
    return {"null": True} if t is None else marker_to_record(t)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


# the unit and the stress class each value names
_UNITS = {u.value: u for u in Unit}
_STRESSES = {c.value: c for c in StressClass}


def model_to_json(model: LanguageModel) -> str:
    """The model document as one line of canonical JSON: ``json.dumps`` of one object.

    Each stored key is one row that names its unit and class by their values
    and every cell by its position in the alphabet's support, the null
    phone being 0. A model that holds counts writes them; any other writes
    each table's probabilities as the ``repr`` of their ``float``.
    """
    q = model.quantization
    index = _index_for(model.alphabet)
    position, full = index.positions, index.support.targets
    doc = {
        "format": FORMAT_VERSION,
        "alphabet_version": model.alphabet.version,
        "support_crc32": index.digest,
        "epsilon": repr(model.epsilon),
        "alpha": repr(model.alpha),
        # float fields as repr strings (exact round trip), integer fields as JSON integers
        "quantization": {f.name: repr(getattr(q, f.name)) if type(f.default) is float
                         else getattr(q, f.name) for f in fields(q)},
        "limits": model.limits.to_json(),
        "rows": "counts" if model.counts else "probabilities",
    }
    if model.transforms:  # in stack order, applied first to last
        doc["transforms"] = [t.to_json() for t in model.transforms]
    rows = []
    for key in sorted(model.tables, key=CondKey.sort_key):
        floor = []
        if model.counts:  # the counted targets, each with its count
            values = model.counts[key]
        else:
            d = model.tables[key]  # as stored: the transform stack is saved on its own
            if d.support() == full:  # the exceptions and the floor
                values, floor = d.exceptions, [repr(float(d.floor))]
            else:  # the whole support
                values = dict(d.entries)
            values = {t: repr(float(p)) for t, p in values.items()}
        listed = [v for t in sorted(values, key=position.__getitem__) for v in (position[t], values[t])]
        rows.append([key.unit.value, key.stress.value, [position[c] for c in key.context], listed, *floor])
    doc["tables"] = rows  # the document's last field
    return _dumps(doc)


def save_model(model: LanguageModel, destination) -> None:
    """Canonical single-line JSON document (byte-stable round trips).

    The stored tables are written as they are, untransformed, or as the
    counts they were smoothed from. A model carrying lazy transforms also
    writes its stack, and ``load_model`` rebuilds it, so the reloaded model
    applies the stack lazily to every lookup, stored or not, as the saved
    one did.
    """
    text = model_to_json(model) + "\n"  # built first, so a failure leaves the file as it was
    with open_text(destination, "w") as fh:
        fh.write(text)


def load_model(source, alphabet: Alphabet) -> LanguageModel:
    """Parse and validate a saved model against the given alphabet."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open_text(source, "r") as fh:
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
    index = _index_for(alphabet)
    # a position names whatever cell the alphabet holds there, so the cells must be the same
    if obj["format"] == FORMAT_VERSION and obj.get("support_crc32") != index.digest:
        raise AlphabetMismatchError(f"model indexes other cells than alphabet {alphabet.version!r}")
    try:
        # alpha is checked before the counts are smoothed with it
        epsilon, alpha = _smoothing(float(obj["epsilon"]), float(obj["alpha"]))
        qj = obj["quantization"]
        quantization = QuantizationConfig(**{
            f.name: float(qj[f.name]) if type(f.default) is float else qj[f.name]
            for f in fields(QuantizationConfig)})
        limits = ProsodicLimits.from_json(obj["limits"])
        if obj["format"] == FORMAT_VERSION:
            rows, kind = obj["tables"], obj["rows"]
        else:
            rows, kind = _legacy_rows(obj["tables"], index, alphabet), "probabilities"
        tables, counts = _read_rows(rows, kind, index, alpha)
        model = LanguageModel(alphabet=alphabet, tables=tables, epsilon=epsilon, alpha=alpha,
                              limits=limits, quantization=quantization)
        model.counts = counts
    except ModelFormatError:
        raise
    except ModelError as exc:  # a bad epsilon, alpha or table is a bad file
        raise ModelFormatError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from None
    return _with_stack(model, obj)


def _read_rows(rows: Iterable[list], kind: str, index: _AdmissibilityIndex, alpha: float):
    """Every document's tables, and the counts they are smoothed from when its rows hold counts."""
    if kind not in ("counts", "probabilities"):
        raise ModelFormatError(f'"rows" must be "counts" or "probabilities", got {kind!r}')
    lengths = (4,) if kind == "counts" else (4, 5)  # a probability row may end with its floor
    support = index.support
    targets = support.targets
    tables: Dict[CondKey, CategoricalDist] = {}
    counts: Dict[CondKey, Dict[Target, int]] = {}
    for i, row in enumerate(rows, start=1):
        def fail(what: str) -> ModelFormatError:
            return ModelFormatError(f"table row {i}: {what}")

        def cell(pos) -> Target:
            if type(pos) is not int or not 0 <= pos < len(targets):  # bool is an int subclass
                raise fail(f"position {pos!r} is not an integer in [0, {len(targets)})")
            return targets[pos]

        if type(row) is not list or len(row) not in lengths:
            raise fail(f"a row of {kind} is [unit, stress, context, values]"
                       + (" and an optional floor" if kind == "probabilities" else ""))
        unit, stress, context, listed, *floor = row
        if type(context) is not list or type(listed) is not list or len(listed) % 2:
            raise fail("expected a context list and a list of position, value pairs")
        key = CondKey(_UNITS[unit], _STRESSES[stress], tuple(map(cell, context)))
        if key in tables:
            raise ModelFormatError(f"duplicate key {key!r}")
        listed_at, values = list(map(cell, listed[::2])), listed[1::2]
        if len(set(listed_at)) != len(listed_at):
            dup = next(p for p, n in Counter(listed[::2]).items() if n > 1)
            raise fail(f"position {dup} listed twice")
        if kind == "probabilities":  # a row without a floor lists its whole support
            tables[key] = CategoricalDist(zip(listed_at, map(float, values)),
                                          support if floor else None, float(floor[0]) if floor else 0.0)
            continue
        if not values:  # with alpha 0 it would divide by zero
            raise fail("a count row lists no target")
        for n in values:
            if type(n) is not int or n < 1:
                raise fail(f"count {n!r} is not a positive integer")
        c = counts[key] = dict(zip(listed_at, values))
        try:
            tables[key] = _smoothed(c, alpha, support)
        except OverflowError:
            raise fail("counts too large for a float") from None
    return tables, counts


def _legacy_rows(entries, index: _AdmissibilityIndex, alphabet: Alphabet) -> Iterator[list]:
    """A version 1-3 document's entries, cells named by their records, as the probability rows they hold.

    An entry with a floor keeps it over the full support, as does a (version 1)
    listing of every target, with floor 0; any other entry lists a partial support.
    """
    position, n = index.positions, len(index.support.targets)

    def cell(obj) -> int:
        return position[_target_from_json(obj, alphabet)]

    for entry in entries:
        key = entry["key"]
        context = [cell(r) for r in key["context"]]
        listed = [v for t, p in entry["dist"] for v in (cell(t), p)]
        floor = [entry["floor"]] if "floor" in entry else [0.0] if len(listed) == 2 * n else []
        yield [key["unit"], key["stress"], context, listed, *floor]


def _with_stack(model: LanguageModel, obj: dict) -> LanguageModel:
    """The model with the document's transform stack.

    A version-4 document may hold one, a version-3 document must, and a
    version-1 or version-2 document may not.
    """
    stack, version = obj.get("transforms"), obj["format"]
    if version in (_V1, _V2):
        if stack is not None:
            raise ModelFormatError(f"a transform stack needs format {_V3!r} or {FORMAT_VERSION!r}")
        return model
    if stack is None and version == FORMAT_VERSION:
        return model
    from .variation import AppliedTransform, apply  # variation imports this module
    if type(stack) is not list or not stack:
        raise ModelFormatError(f'a {version!r} document\'s "transforms" must be a nonempty list')
    for i, entry in enumerate(stack, start=1):
        try:
            t = AppliedTransform.from_json(entry)
        except ValueError as exc:
            raise ModelFormatError(f"bad transform {i}: {exc}") from None
        if t.spec.lam == 0:  # apply would drop it, so the file would reload to another stack
            raise ModelFormatError(f"bad transform {i}: a lambda of 0 is the identity and is never saved")
        model = apply(model, t.regime, t.spec)
    return model
