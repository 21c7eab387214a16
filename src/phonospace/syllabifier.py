"""Phone-string validation, syllable parsing, stress and dependency plans.

A valid phone string has at least 3 phones, opens and closes with a
closure, contains a non-closure, never runs more than 2 closures in a
row, and is strictly ordered in time where onset times are present.
After collapsing marker-repeats, the string splits into blocks of
sonority-equivalent phones; syllables span consecutive sonority minima
(string edges always anchor), each with a unique maximal nucleus block.
Stress scores rank the syllables, the ranking classifies them, and the
classification fixes the direction of every conditional factor in the
dependency plan.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .alphabet import (
    DEFAULT_QUANTIZATION,
    IdentityEnum,
    Manner,
    Marker,
    Phone,
    ProsodicVector,
    QuantizationConfig,
    Alphabet,
    dequantize,
    quantize,
)
from .sonority import SonorityRelation, cmp_sonority


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    index: Optional[int] = None

    def __str__(self) -> str:
        where = f" at phone {self.index}" if self.index is not None else ""
        return f"{self.code}{where}: {self.message}"


class InvalidPhoneString(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class PhoneString:
    phones: Tuple[Phone, ...]

    def __len__(self) -> int:
        return len(self.phones)

    def __iter__(self):
        return iter(self.phones)

    def __getitem__(self, i):
        return self.phones[i]

    def markers(self) -> Tuple[Marker, ...]:
        return tuple(p.marker for p in self.phones)


def string_violations(phones: Sequence[Phone], alphabet: Optional[Alphabet] = None) -> List[Violation]:
    """All validity violations of a raw phone sequence (empty when valid)."""
    out: List[Violation] = []
    for i, p in enumerate(phones):
        if p.is_null:
            out.append(Violation("invalidMarker", "null phone in transcription", i))
        elif alphabet is not None and p.marker not in alphabet:
            out.append(Violation("invalidMarker", f"marker {p.marker!r} not in alphabet", i))
    if any(v.code == "invalidMarker" for v in out):
        return out
    if len(phones) < 3:
        out.append(Violation("tooShort", f"{len(phones)} phones, need at least 3"))
        return out
    if phones[0].marker.manner is not Manner.CLOSURE:
        out.append(Violation("missingBoundaryClosure", "string must start with a closure", 0))
    if phones[-1].marker.manner is not Manner.CLOSURE:
        out.append(Violation("missingBoundaryClosure", "string must end with a closure", len(phones) - 1))
    if all(p.marker.manner is Manner.CLOSURE for p in phones):
        out.append(Violation("allClosures", "string contains no non-closure phone"))
    run = 0
    for i, p in enumerate(phones):
        run = run + 1 if p.marker.manner is Manner.CLOSURE else 0
        if run == 3:
            out.append(Violation("closureRunTooLong", "more than 2 consecutive closures", i))
            break
    prev_t = None
    for i, p in enumerate(phones):
        if p.t0 is None:
            continue
        if prev_t is not None and p.t0 <= prev_t:
            out.append(Violation("timeNotStrictlyIncreasing", f"t0 {p.t0} after {prev_t}", i))
            break
        prev_t = p.t0
    return out


def validate_string(phones: Sequence[Phone], alphabet: Optional[Alphabet] = None) -> PhoneString:
    """Validated PhoneString, or InvalidPhoneString carrying every violation."""
    violations = string_violations(phones, alphabet)
    if violations:
        raise InvalidPhoneString(violations)
    return PhoneString(tuple(phones))


def _majority(bits: List[int], first: int) -> int:
    ones = sum(bits)
    if 2 * ones > len(bits):
        return 1
    if 2 * ones < len(bits):
        return 0
    return first


def collapse_repeats(s: PhoneString, cfg: QuantizationConfig = DEFAULT_QUANTIZATION) -> PhoneString:
    """Merge adjacent phones that share a marker.

    The merged phone keeps the earliest onset time and the first T,
    takes max L, sums R, resolves V and N by majority (ties go to the
    first phone), and re-quantizes D from the summed linear durations.
    """
    out: List[Phone] = []
    i = 0
    phones = s.phones
    while i < len(phones):
        j = i
        while j + 1 < len(phones) and phones[j + 1].marker == phones[i].marker:
            j += 1
        if j == i:
            out.append(phones[i])
        else:
            run = phones[i:j + 1]
            pv = [p.prosody for p in run]
            total = sum(dequantize(p.D, "D", cfg) for p in pv)
            r_sum = sum(p.R for p in pv)
            r_sum = max(-cfg.max_abs_units, min(cfg.max_abs_units, r_sum))
            merged = ProsodicVector(
                R=r_sum,
                N=_majority([p.N for p in pv], pv[0].N),
                V=_majority([p.V for p in pv], pv[0].V),
                T=pv[0].T,
                D=quantize(total, "D", cfg),
                L=max(p.L for p in pv),
            )
            t0 = next((p.t0 for p in run if p.t0 is not None), None)
            out.append(Phone(phones[i].marker, merged, t0))
        i = j + 1
    return PhoneString(tuple(out))


# ---------------------------------------------------------------------------
# blocks and syllables


@dataclass(frozen=True)
class Block:
    """Maximal run of adjacently sonority-equivalent phones."""

    start: int
    end: int  # inclusive phone index


@dataclass(frozen=True)
class Syllable:
    start_block: int
    nucleus_block: int
    end_block: int
    start: int    # first phone of the start block
    nucleus: int  # representative phone of the nucleus block (position m)
    end: int      # last phone of the end block (position n)
    interior_start: int  # first phone after the start block
    interior_end: int    # last phone before the end block (may be < interior_start)

    @property
    def onset_range(self) -> range:
        return range(self.start, self.nucleus + 1)

    @property
    def rhyme_range(self) -> range:
        return range(self.nucleus, self.end + 1)

    def interior(self) -> range:
        return range(self.interior_start, self.interior_end + 1)


@dataclass(frozen=True)
class SyllableParse:
    blocks: Tuple[Block, ...]
    syllables: Tuple[Syllable, ...]


def parse_syllables(s: PhoneString) -> SyllableParse:
    """Segment a collapsed, valid string into syllables at sonority minima.

    One pass over adjacent phones compares each pair once: a relation
    other than EQUIVALENT closes a block and is kept as its boundary's.
    String edges always anchor a boundary; interior anchors are the
    blocks strictly below both neighbors. Adjacent syllables share their
    boundary minimum block, and between two anchors the block profile
    rises to a unique peak (the nucleus) and falls again.
    """
    phones = s.phones
    blocks: List[Block] = []
    # rel[i]: LESS iff block i sits below block i+1, judged at the boundary pair
    rel: List[SonorityRelation] = []
    start = 0
    for i in range(1, len(phones)):
        r = cmp_sonority(phones[i - 1].marker, phones[i].marker)
        if r is not SonorityRelation.EQUIVALENT:
            blocks.append(Block(start, i - 1))
            rel.append(r)
            start = i
    blocks.append(Block(start, len(phones) - 1))
    n = len(blocks)
    if n < 2:  # cannot occur for a validated string (closures never join a block)
        raise ValueError("phone string has a single sonority block; validate it first")
    minima = [i for i in range(1, n - 1)
              if rel[i - 1] is SonorityRelation.GREATER and rel[i] is SonorityRelation.LESS]
    anchors = [0, *minima, n - 1]
    syllables: List[Syllable] = []
    for a, b in zip(anchors, anchors[1:]):
        peak = a
        for i in range(a, b):
            if rel[i] is SonorityRelation.LESS:
                peak = i + 1
            else:
                break
        sb, nb, eb = blocks[a], blocks[peak], blocks[b]
        syllables.append(Syllable(
            start_block=a, nucleus_block=peak, end_block=b,
            start=sb.start, nucleus=nb.start, end=eb.end,
            interior_start=sb.end + 1, interior_end=eb.start - 1,
        ))
    return SyllableParse(tuple(blocks), tuple(syllables))


# ---------------------------------------------------------------------------
# stress


class StressClass(IdentityEnum):
    STRESSED = "stressed"
    UNSTRESSED = "unstressed"
    MIDDLING_LTR = "middling-LtoR"
    MIDDLING_RTL = "middling-RtoL"


# What each class claims: (ranks above its left neighbour, ranks above its
# right one). A side facing a lower neighbour depends outward from the
# nucleus, one facing a higher neighbour inward; adjacent classes must agree
# on the rank step they share.
ABOVE = {
    StressClass.STRESSED: (True, True),
    StressClass.UNSTRESSED: (False, False),
    StressClass.MIDDLING_LTR: (False, True),
    StressClass.MIDDLING_RTL: (True, False),
}
_CLASS_OF = {claims: cls for cls, claims in ABOVE.items()}


@dataclass(frozen=True)
class StressWeights:
    w_d: float = 1.0
    w_l: float = 1.0
    w_t: float = 1.0
    w_count: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():  # the fields, in order
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {name!r} must be an int or a float, got {value!r}")
            # the comparison also rejects NaN and integers too large for a float
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"field {name!r} must be finite and nonnegative, got {value!r}")
        if self.w_d == self.w_l == self.w_t == self.w_count == 0:
            raise ValueError("stress weights cannot all be zero")


def stress_score(
    syl: Syllable,
    s: PhoneString,
    w: StressWeights = StressWeights(),
    cfg: QuantizationConfig = DEFAULT_QUANTIZATION,
) -> float:
    """Deterministic stress measure of one parsed syllable.

    Combines the quantized log of the summed linear durations, the max
    loudness, the nucleus tone and the phone count, each weighted. The
    boundary minima are junctions shared with the neighbors and do not
    count as constituents; a degenerate edge syllable with an empty
    interior falls back to its full span.
    """
    indices = list(syl.interior())
    if not indices:
        indices = list(range(syl.start, syl.end + 1))
    phones = [s.phones[i] for i in indices]
    total_dur = sum(dequantize(p.prosody.D, "D", cfg) for p in phones)
    return (
        w.w_d * quantize(total_dur, "D", cfg)
        + w.w_l * max(p.prosody.L for p in phones)
        + w.w_t * s.phones[syl.nucleus].prosody.T
        + w.w_count * len(phones)
    )


def classify_stress(syllables: Sequence[Syllable], scores: Sequence[float]) -> List[StressClass]:
    """Stress classes from the score ranking.

    Equal adjacent scores rank the earlier syllable higher, so every
    comparison is strict. Local maxima are stressed and local minima
    unstressed; otherwise the dependence points from the more stressed
    neighbor to the less stressed one. The first syllable is judged
    against its right neighbor only (the virtual stressed beginning
    yields the same answer), and the string end is virtually unstressed,
    so a falling last syllable is middling left-to-right.
    """
    if len(syllables) != len(scores):
        raise ValueError("one score per syllable required")
    # right[i]: syllable i ranks above syllable i + 1, or above the string end
    right = [a >= b for a, b in zip(scores, scores[1:])] + [True][:len(scores)]
    left = right[:1] + [not r for r in right[:-1]]
    return [_CLASS_OF[claims] for claims in zip(left, right)]


# ---------------------------------------------------------------------------
# dependency plan


class Unit(IdentityEnum):
    ONSET = "onset"
    RHYME = "rhyme"
    NUCLEUS = "nucleus"


@dataclass(frozen=True)
class Factor:
    """One conditional: target phone index given context indices.

    A context slot of None stands for the null phone (missing neighbor
    at a degenerate string edge).
    """

    target: int
    context: Tuple[Optional[int], ...]
    unit: Unit
    stress: StressClass
    syllable: int


@dataclass(frozen=True)
class DependencyPlan:
    factors: Tuple[Factor, ...]

    def targets(self) -> List[int]:
        return [f.target for f in self.factors]


def dependency_plan(parse: SyllableParse, classes: Sequence[StressClass]) -> DependencyPlan:
    """Emit the conditional factors of every syllable.

    A side (onset or rhyme) whose class ranks it above its neighbour
    depends outward from the nucleus, each phone on the one nearer the
    nucleus; the other kind depends inward, each phone on the one nearer
    the edge. The nucleus is given when both sides are outward and
    otherwise depends on its inward neighbours, left to right. Shared
    boundary minima come out targeted exactly once because the legal
    class adjacencies make the schemes dovetail.
    """
    if len(parse.syllables) != len(classes):
        raise ValueError("one stress class per syllable required")
    factors: List[Factor] = []
    for si, (syl, cls) in enumerate(zip(parse.syllables, classes)):
        s, m, e = syl.start, syl.nucleus, syl.end
        left, right = ABOVE[cls]
        # a boundary minimum acts as one phone even when it is a block of
        # equivalents: inward sides stop at the block edge, leaving the
        # whole block to the neighbor that targets it
        onset = [Factor(j, (j + 1,) if left else (j - 1,), Unit.ONSET, cls, si)
                 for j in range(s if left else syl.interior_start, m)]
        rhyme = [Factor(k, (k - 1,) if right else (k + 1,), Unit.RHYME, cls, si)
                 for k in range(m + 1, e + 1 if right else syl.interior_end + 1)]
        if left and right:  # a stressed rhyme is emitted from the edge inward
            rhyme.reverse()
        inward = [i if s <= i <= e else None
                  for i, out in ((m - 1, left), (m + 1, right)) if not out]
        nucleus = [Factor(m, tuple(inward), Unit.NUCLEUS, cls, si)] if inward else []
        # a middling nucleus comes before its rhyme, an unstressed one last
        factors += onset + nucleus + rhyme if left != right else onset + rhyme + nucleus
    return DependencyPlan(tuple(factors))


def parse_and_plan(
    phones: Iterable[Phone],
    alphabet: Optional[Alphabet] = None,
    weights: StressWeights = StressWeights(),
    cfg: QuantizationConfig = DEFAULT_QUANTIZATION,
):
    """validate -> collapse -> parse -> score -> classify -> plan, for any iterable of phones."""
    phones = tuple(phones)
    violations = string_violations(phones, alphabet)
    if violations:
        raise InvalidPhoneString(violations)
    s = collapse_repeats(PhoneString(phones), cfg)
    parse = parse_syllables(s)
    scores = [stress_score(sy, s, weights, cfg) for sy in parse.syllables]
    classes = classify_stress(parse.syllables, scores)
    plan = dependency_plan(parse, classes)
    return s, parse, scores, classes, plan
