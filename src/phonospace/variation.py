"""Phonological variation as prosody-conditioned rewrites of a model.

Each transform edits the conditional distributions whose keys match its
trigger pattern and leaves every other key untouched (bit-identical).
Transforms are lazy: applying one returns a model whose dist() pipes
lookups through the transform stack, so generic fallbacks are covered
without materializing the quadratic key space. A saved model keeps its
stack next to its untransformed tables, so a reload applies it alike. A
lambda of zero, or a regime of all ones, is the identity for every kind.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import astuple, dataclass, fields, replace
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

from .alphabet import FrontBack, IdentityEnum, Manner, Marker, OpenClose, Place
from .model import (
    CategoricalDist,
    CondKey,
    LanguageModel,
    ModelError,
    Target,
    _index_for,
    following_context_slot,
)
from .sonority import DISTANCES
from .syllabifier import StressClass, Unit


class TransformKind(IdentityEnum):
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
        for name, value in vars(self).items():  # the fields, in order
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {name!r} must be an int or a float, got {value!r}")
            # the comparison also rejects NaN and integers too large for a float
            if not 0 < value <= sys.float_info.max:
                raise ValueError(f"field {name!r} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    lam: float

    def __post_init__(self):
        if not isinstance(self.kind, TransformKind):
            raise ValueError(f"field 'kind' must be a TransformKind, got {self.kind!r}")
        if not isinstance(self.lam, (int, float)) or isinstance(self.lam, bool):
            raise ValueError(f"field 'lam' must be an int or a float, got {self.lam!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")


_LENITION_SRC = Marker(Manner.PLOSIVE, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_LENITION_DST = Marker(Manner.APPROXIMANT, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_ASSIM_TRIGGER = Marker(Manner.PLOSIVE, FrontBack.BACK, OpenClose.CLOSE, Place.PAL)
_ASSIM_SRC = Marker(Manner.NASAL, FrontBack.CENTRAL, OpenClose.CLOSE, Place.PAL)
_ASSIM_DST = Marker(Manner.NASAL, FrontBack.BACK, OpenClose.CLOSE, Place.PAL)


def ordinal_distance(a: Marker, b: Marker) -> int:
    """Hasse-graph path length between two markers, summed per dimension.

    Incomparable pairs route through their least upper bound (uvular for
    velar vs PAL, the tent top for opposite frontBack sides).
    """
    return sum(table[getattr(a, attr)][getattr(b, attr)] for attr, table in DISTANCES)


def _scaled(dist: CategoricalDist, targets: Sequence[Target], factor: float) -> CategoricalDist:
    """``dist`` with the masses of ``targets``, of its support, times ``factor``.

    Each mass is clipped at 1 - (n - 1) * 1e-12, then divided by the sum in canonical target order.
    """
    support, exceptions = dist.support(), dist.exceptions
    cap = 1.0 - (len(support) - 1) * 1e-12  # so every entry stays positive
    clipped = {t: min(p, cap) for t, p in exceptions.items()}
    clipped.update({t: min(exceptions.get(t, dist.floor) * factor, cap) for t in targets})
    floor = min(dist.floor, cap)
    total = sum(map(clipped.get, support, repeat(floor)))  # in entry order
    return dist.rebuilt({t: p / total for t, p in clipped.items()}, floor / total)


def _move_mass(dist: CategoricalDist, src: Marker, dst: Marker, frac: float) -> CategoricalDist:
    delta = dist.prob(src) * frac
    if delta <= 0.0 or dst not in dist.support():
        return dist
    return dist.rebuilt({**dist.exceptions, src: dist.prob(src) - delta, dst: dist.prob(dst) + delta}, dist.floor)


@dataclass(frozen=True)
class AppliedTransform:
    """One transform bound to its regime; applied per-key by model.dist().

    Syncope and epenthesis scale their targets through ``_scaled``; lenition and assimilation
    move mass between two targets; straightening reweights every target by ordinal distance.
    """

    spec: TransformSpec
    regime: Regime

    def apply(self, model: LanguageModel, key: CondKey, dist: CategoricalDist) -> CategoricalDist:
        kind, lam = self.spec.kind, self.spec.lam
        if kind is TransformKind.SYNCOPE:
            if key.stress is not StressClass.UNSTRESSED:
                return dist
            factor = 1.0 + lam * (self.regime.rate - 1.0)
            return dist if factor == 1.0 or dist.prob(None) == 0.0 else _scaled(dist, [None], factor)
        if kind is TransformKind.EPENTHESIS:
            if key.stress is not StressClass.STRESSED:
                return dist
            factor = 1.0 + lam * (self.regime.loud - 1.0)
            if factor == 1.0:
                return dist
            index = _index_for(model.alphabet)
            # joining targets: the cells outside the key's row that carry mass
            joining = [t for t in index.members(index.full & ~index.row(key)) if dist.prob(t) > 0.0]
            return _scaled(dist, joining, factor) if joining else dist
        if kind is TransformKind.LENITION:
            if key.unit not in (Unit.ONSET, Unit.RHYME):
                return dist
            if not any(c is not None and c.manner is Manner.VOWEL for c in key.context):
                return dist
            frac = min(1.0, max(0.0, lam * (self.regime.rate - 1.0) / self.regime.rate))
            return _move_mass(dist, _LENITION_SRC, _LENITION_DST, frac)
        if kind is TransformKind.ASSIMILATION:
            slot = following_context_slot(key)
            if slot is None or slot >= len(key.context) or key.context[slot] != _ASSIM_TRIGGER:
                return dist
            return _move_mass(dist, _ASSIM_SRC, _ASSIM_DST, lam)
        if kind is not TransformKind.STRAIGHTENING:
            raise ValueError(f"unknown transform kind {kind!r}")
        beta = 1.0 + lam * (self.regime.rate - 1.0)
        if beta == 1.0:
            return dist
        contexts = [c for c in key.context if c is not None]
        if not contexts:
            return dist
        index = _index_for(model.alphabet)
        n = len(contexts)
        # per cell, the summed distance to the contexts; one exp per distinct sum
        sums = list(map(sum, zip(*(index.distances(c) for c in contexts))))
        factor = {s: math.exp(-(beta - 1.0) * (s / n)) for s in set(sums)}
        # per target of the full support: the null phone (deletion, the maximal
        # shortening) is at distance 0, then the cells in canonical order
        weights = [1.0, *map(factor.__getitem__, sums)]
        support = dist.support()
        if support is not index.support.targets:  # a distribution over fewer targets
            weights = list(map(dict(zip(index.support.targets, weights)).__getitem__, support))
        masses = map(dist.exceptions.get, support, repeat(dist.floor))
        probs = list(map(operator.mul, masses, weights))
        total = sum(probs)  # in entry order
        if total <= 0.0:
            return dist
        # every target's mass changes; the rebuild picks the new floor
        return dist.rebuilt(dict(zip(support, map(operator.truediv, probs, repeat(total)))), 0.0)

    def to_json(self) -> dict:
        """The transform as saved in a model file: its kind, then each number as a ``repr`` string."""
        numbers = (self.spec.lam, *astuple(self.regime))
        return {"kind": self.spec.kind.value,
                **{name: repr(float(value)) for name, value in zip(_NUMBERS, numbers)}}

    @classmethod
    def from_json(cls, obj) -> "AppliedTransform":
        """Inverse of ``to_json``; ValueError for a bad entry."""
        if type(obj) is not dict or obj.keys() != {"kind", *_NUMBERS}:
            raise ValueError(f"expected the fields kind, {', '.join(_NUMBERS)}, got {obj!r}")
        if not all(type(obj[name]) is str for name in _NUMBERS):
            raise ValueError(f"numbers must be decimal strings, got {obj!r}")
        lam, *regime = (float(obj[name]) for name in _NUMBERS)
        return cls(TransformSpec(TransformKind(obj["kind"]), lam), Regime(*regime))


# a saved transform's numbers: its lambda, then the regime's fields
_NUMBERS = ("lambda", *(f.name for f in fields(Regime)))


def apply(model: LanguageModel, regime: Regime, spec: TransformSpec) -> LanguageModel:
    """New model whose distributions pass through one more transform.

    A lambda of zero is the identity, so the model itself is returned and
    its stack (and its saved document) stays as it was.
    """
    if spec.lam == 0:
        return model
    return replace(model, transforms=model.transforms + (AppliedTransform(spec, regime),))


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
