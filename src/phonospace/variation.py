"""Phonological variation as prosody-conditioned rewrites of a model.

Each transform edits the conditional distributions whose keys match its
trigger pattern and leaves every other key untouched (bit-identical).
Transforms are lazy: applying one returns a model whose dist() pipes
lookups through the transform stack, so generic fallbacks are covered
without materializing the quadratic key space. A lambda of zero, or a
regime of all ones, is the identity for every kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .alphabet import FrontBack, Manner, Marker, OpenClose, Place
from .model import (
    CategoricalDist,
    CondKey,
    LanguageModel,
    ModelError,
    Target,
    admissible_targets,
    following_context_slot,
)
from .syllabifier import StressClass, Unit


class TransformKind(Enum):
    SYNCOPE = "syncope"
    EPENTHESIS = "epenthesis"
    LENITION = "lenition"
    ASSIMILATION = "assimilation"
    STRAIGHTENING = "straightening"


@dataclass(frozen=True)
class Regime:
    """Prosodic regime factors; 1.0 everywhere is normative speech."""

    rate: float = 1.0
    loud: float = 1.0
    pitch: float = 1.0

    def __post_init__(self):
        if min(self.rate, self.loud, self.pitch) <= 0:
            raise ValueError("regime factors must be strictly positive")


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")


_LENITION_SRC = Marker(Manner.PLOSIVE, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_LENITION_DST = Marker(Manner.APPROXIMANT, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_ASSIM_TRIGGER = Marker(Manner.PLOSIVE, FrontBack.BACK, OpenClose.CLOSE, Place.PAL)
_ASSIM_SRC = Marker(Manner.NASAL, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_ASSIM_DST = Marker(Manner.NASAL, FrontBack.BACK, OpenClose.CLOSE, Place.PAL)

_FB_HEIGHT = {FrontBack.FRONT: 0, FrontBack.FRONT_LIKE: 1, FrontBack.CENTRAL: 2,
              FrontBack.BACK_LIKE: 1, FrontBack.BACK: 0}
_FB_SIDE = {FrontBack.FRONT: "f", FrontBack.FRONT_LIKE: "f", FrontBack.CENTRAL: None,
            FrontBack.BACK_LIKE: "b", FrontBack.BACK: "b"}
_PLACE_HEIGHT = {Place.VELAR: 0, Place.PAL: 0, Place.UVULAR: 1,
                 Place.PHARYNGEAL: 2, Place.EPIGLOTTAL: 3, Place.GLOTTAL: 4}
_MANNER_RANK = {m: i for i, m in enumerate(Manner)}
_OC_RANK = {o: i for i, o in enumerate(OpenClose)}


def ordinal_distance(a: Marker, b: Marker) -> int:
    """Hasse-graph path length between two markers, summed per dimension.

    Incomparable pairs route through their least upper bound (uvular for
    velar vs PAL, the tent top for opposite frontBack sides).
    """
    d = abs(_MANNER_RANK[a.manner] - _MANNER_RANK[b.manner])
    d += abs(_OC_RANK[a.open_close] - _OC_RANK[b.open_close])
    ha, hb = _FB_HEIGHT[a.front_back], _FB_HEIGHT[b.front_back]
    sa, sb = _FB_SIDE[a.front_back], _FB_SIDE[b.front_back]
    if sa is not None and sb is not None and sa != sb:
        d += (2 - ha) + (2 - hb)
    else:
        d += abs(ha - hb)
    pa, pb = _PLACE_HEIGHT[a.place], _PLACE_HEIGHT[b.place]
    if {a.place, b.place} == {Place.VELAR, Place.PAL}:
        d += 2
    else:
        d += abs(pa - pb)
    return d


def _renormalized(dist: CategoricalDist, exceptions: Dict[Target, float],
                  floor: float) -> CategoricalDist:
    """``dist``'s support with new masses, clipped and scaled to sum to one."""
    support = dist.support()
    cap = 1.0 - (len(support) - 1) * 1e-12  # keep all entries positive after scaling
    floor = min(floor, cap)
    clipped = {t: min(p, cap) for t, p in exceptions.items()}
    total = sum(clipped.get(t, floor) for t in support)  # summed in entry order
    return dist.rebuilt({t: p / total for t, p in clipped.items()}, floor / total)


def _move_mass(dist: CategoricalDist, src: Marker, dst: Marker, frac: float) -> CategoricalDist:
    delta = dist.prob(src) * frac
    if delta <= 0.0 or dst not in dist.support():
        return dist
    exceptions = dict(dist.exceptions)
    exceptions[src] = dist.prob(src) - delta
    exceptions[dst] = dist.prob(dst) + delta
    return dist.rebuilt(exceptions, dist.floor)


@dataclass(frozen=True)
class AppliedTransform:
    """One transform bound to its regime; applied per-key by model.dist()."""

    spec: TransformSpec
    regime: Regime

    def apply(self, model: LanguageModel, key: CondKey, dist: CategoricalDist) -> CategoricalDist:
        kind, lam = self.spec.kind, self.spec.lam
        if lam == 0.0:
            return dist
        if kind is TransformKind.SYNCOPE:
            if key.stress is not StressClass.UNSTRESSED:
                return dist
            factor = 1.0 + lam * (self.regime.rate - 1.0)
            if factor == 1.0 or dist.prob(None) == 0.0:
                return dist
            exceptions = dict(dist.exceptions)
            exceptions[None] = dist.prob(None) * factor
            return _renormalized(dist, exceptions, dist.floor)
        if kind is TransformKind.EPENTHESIS:
            if key.stress is not StressClass.STRESSED:
                return dist
            factor = 1.0 + lam * (self.regime.loud - 1.0)
            if factor == 1.0:
                return dist
            adm = admissible_targets(model.alphabet, key)
            # joining targets: markers outside the admissible set with mass
            exceptions = dict(dist.exceptions)
            joining = [t for t, p in exceptions.items()
                       if t is not None and t not in adm and p > 0.0]
            for t in joining:
                exceptions[t] *= factor
            floor = dist.floor
            at_floor = set(dist.support()) - exceptions.keys()
            joining_at_floor = at_floor - adm - {None} if floor > 0.0 else set()
            if joining_at_floor:
                exceptions.update(dict.fromkeys(at_floor - joining_at_floor, floor))
                floor *= factor
            elif not joining:
                return dist
            return _renormalized(dist, exceptions, floor)
        if kind is TransformKind.LENITION:
            if key.unit not in (Unit.ONSET, Unit.RHYME):
                return dist
            if not any(c is not None and c.manner is Manner.VOWEL for c in key.context):
                return dist
            frac = lam * (self.regime.rate - 1.0) / self.regime.rate
            frac = min(1.0, max(0.0, frac))
            if frac == 0.0:
                return dist
            return _move_mass(dist, _LENITION_SRC, _LENITION_DST, frac)
        if kind is TransformKind.ASSIMILATION:
            slot = following_context_slot(key)
            if slot is None or slot >= len(key.context) or key.context[slot] != _ASSIM_TRIGGER:
                return dist
            return _move_mass(dist, _ASSIM_SRC, _ASSIM_DST, lam)
        # straightening
        beta = 1.0 + lam * (self.regime.rate - 1.0)
        if beta == 1.0:
            return dist
        contexts = [c for c in key.context if c is not None]
        if not contexts:
            return dist
        probs: Dict[Target, float] = {}
        for t, p in dist.entries:
            if t is None:
                d = 0.0  # deletion is the maximal shortening
            else:
                d = sum(ordinal_distance(c, t) for c in contexts) / len(contexts)
            probs[t] = p * math.exp(-(beta - 1.0) * d)
        total = sum(probs.values())
        if total <= 0.0:
            return dist
        # every target's mass changes; the rebuild picks the new floor
        return dist.rebuilt({t: p / total for t, p in probs.items()}, 0.0)


def apply(model: LanguageModel, regime: Regime, spec: TransformSpec) -> LanguageModel:
    """New model whose distributions pass through one more transform."""
    return LanguageModel(
        alphabet=model.alphabet, tables=model.tables,
        epsilon=model.epsilon, alpha=model.alpha,
        limits=model.limits, quantization=model.quantization,
        transforms=model.transforms + (AppliedTransform(spec, regime),),
    )


def drift_report(
    base: LanguageModel,
    varied: LanguageModel,
    keys: Optional[Sequence[CondKey]] = None,
) -> List[Tuple[CondKey, float]]:
    """Per-key total-variation distances, largest drift first.

    Defaults to the union of the two models' stored tables; keys missing
    from either side are compared through the generic fallback.
    """
    if base.alphabet_version != varied.alphabet_version:
        raise ModelError(
            f"alphabet mismatch: {base.alphabet_version!r} vs {varied.alphabet_version!r}")
    if keys is None:
        keys = sorted(set(base.tables) | set(varied.tables), key=CondKey.sort_key)
    report = [(key, base.dist(key).tv_distance(varied.dist(key))) for key in keys]
    report.sort(key=lambda kv: (-kv[1], kv[0].sort_key()))
    return report
