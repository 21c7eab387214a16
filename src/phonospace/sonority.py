"""Orders on the four phonetic dimensions and the diphthongal constraint.

Manner and openClose are total chains (closure lowest, vowel/open
highest). frontBack is a tent with central on top and the two sides
mutually incomparable; place is two chains joined at uvular, leaving
velar and palatAlveoLabial incomparable. The composite sonority
comparison is lexicographic over (manner, place, openClose, frontBack),
collapsing any incomparability met before a decision into equivalence.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .alphabet import FrontBack, IdentityEnum, Manner, Marker, OpenClose, Place


class PartialOrdering(IdentityEnum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class SonorityRelation(IdentityEnum):
    LESS = "less"
    GREATER = "greater"
    EQUIVALENT = "equivalent"


# Per dimension (Marker field), each value's (side, height). Values on two
# different sides are incomparable; otherwise the higher one is greater.
# Manner and openClose are one-sided chains, frontBack a tent with central
# on top ('f'/'b' below it), and place two chains ('v'/'p') joined at uvular.
_POSITIONS = {
    "manner": {m: (None, h) for h, m in enumerate((
        Manner.CLOSURE, Manner.PLOSIVE, Manner.FRICATIVE,
        Manner.NASAL, Manner.APPROXIMANT, Manner.VOWEL))},
    "open_close": {o: (None, h) for h, o in enumerate((
        OpenClose.CLOSE, OpenClose.CLOSE_LIKE, OpenClose.CLOSE_MID, OpenClose.MID,
        OpenClose.OPEN_MID, OpenClose.OPEN_LIKE, OpenClose.OPEN))},
    "front_back": {
        FrontBack.FRONT: ("f", 0), FrontBack.FRONT_LIKE: ("f", 1),
        FrontBack.CENTRAL: (None, 2),
        FrontBack.BACK_LIKE: ("b", 1), FrontBack.BACK: ("b", 0),
    },
    "place": {
        Place.VELAR: ("v", 0), Place.PAL: ("p", 0),
        Place.UVULAR: (None, 1), Place.PHARYNGEAL: (None, 2),
        Place.EPIGLOTTAL: (None, 3), Place.GLOTTAL: (None, 4),
    },
}


def _comparison(attr: str) -> Callable[[Enum, Enum], PartialOrdering]:
    """The partial order of one dimension, named ``cmp_<attr>``."""
    pos = _POSITIONS[attr]

    def cmp(a: Enum, b: Enum) -> PartialOrdering:
        side_a, h_a = pos[a]
        side_b, h_b = pos[b]
        if side_a is not None and side_b is not None and side_a != side_b:
            return PartialOrdering.INCOMPARABLE
        if h_a < h_b:
            return PartialOrdering.LESS
        if h_a > h_b:
            return PartialOrdering.GREATER
        return PartialOrdering.EQUAL

    cmp.__name__ = cmp.__qualname__ = f"cmp_{attr}"
    return cmp


cmp_manner, cmp_open_close, cmp_front_back, cmp_place = map(_comparison, _POSITIONS)


def _path_lengths(pos: Dict[Enum, Tuple[Optional[str], int]]) -> Dict[Enum, Dict[Enum, int]]:
    """Path lengths between the values of a chain or of two chains joined at the top.

    Values on opposite sides meet at the lowest shared (side None) value.
    """
    join = min(h for side, h in pos.values() if side is None)
    return {a: {b: (join - ha) + (join - hb) if sa is not None and sb is not None and sa != sb
                else abs(ha - hb)
                for b, (sb, hb) in pos.items()}
            for a, (sa, ha) in pos.items()}


# Per dimension (Marker field), the Hasse-graph path length between any
# two of its values; incomparable values route through their least upper
# bound. Their sum over the dimensions is the ordinal distance of markers.
DISTANCES = tuple((attr, _path_lengths(pos)) for attr, pos in _POSITIONS.items())


@lru_cache(maxsize=None)
def cmp_sonority(a: Marker, b: Marker) -> SonorityRelation:
    """Composite comparison driving syllabification.

    Lexicographic over (manner, place, openClose, frontBack); the first
    strict result decides, and an incomparable result met before any
    decision collapses the pair into equivalence.
    """
    for rel in (
        cmp_manner(a.manner, b.manner),
        cmp_place(a.place, b.place),
        cmp_open_close(a.open_close, b.open_close),
        cmp_front_back(a.front_back, b.front_back),
    ):
        if rel is PartialOrdering.LESS:
            return SonorityRelation.LESS
        if rel is PartialOrdering.GREATER:
            return SonorityRelation.GREATER
        if rel is PartialOrdering.INCOMPARABLE:
            return SonorityRelation.EQUIVALENT
    return SonorityRelation.EQUIVALENT


_DOWN = frozenset({PartialOrdering.LESS, PartialOrdering.EQUAL})
_DOWN_OR_SIDEWAYS = _DOWN | {PartialOrdering.INCOMPARABLE}


class StepDimension(NamedTuple):
    """One dimension of the diphthongal step rule."""

    attr: str  # Marker field
    values: type  # the dimension's Enum
    cmp: Callable[[Enum, Enum], PartialOrdering]
    allowed: frozenset  # relations of cmp(step end, step start) that do not rise


# The diphthongal step a -> b: for every dimension cmp(b, a) is allowed,
# and at least one of them is a strict fall (LESS).
STEP_RULE = (
    StepDimension("manner", Manner, cmp_manner, _DOWN),
    StepDimension("open_close", OpenClose, cmp_open_close, _DOWN),
    StepDimension("place", Place, cmp_place, _DOWN_OR_SIDEWAYS),
    StepDimension("front_back", FrontBack, cmp_front_back, _DOWN_OR_SIDEWAYS),
)


@lru_cache(maxsize=None)
def is_diphthongal_step(a: Marker, b: Marker) -> bool:
    """True iff a -> b is one admissible step away from the nucleus.

    Moving in the rhyme direction no dimension may increase and at least
    one must strictly decrease; the incomparable sides of frontBack and
    place count as not-increasing but never as the strict decrease.
    """
    fell = False
    for dim in STEP_RULE:
        rel = dim.cmp(getattr(b, dim.attr), getattr(a, dim.attr))
        if rel not in dim.allowed:
            return False
        fell = fell or rel is PartialOrdering.LESS
    return fell


def check_diphthongal_syllable(onset: Sequence[Marker], rhyme: Sequence[Marker]) -> bool:
    """Check a whole syllable against the generalized-diphthong constraint.

    ``onset`` runs up to and including the nucleus, ``rhyme`` from the
    nucleus onward; both must be nonempty and agree on the nucleus.
    Onset pairs are checked under time reversal.
    """
    if not onset or not rhyme:
        raise ValueError("onset and rhyme must be nonempty")
    if onset[-1] != rhyme[0]:
        raise ValueError("onset and rhyme must share the nucleus marker")
    for earlier, later in zip(onset, onset[1:]):
        if not is_diphthongal_step(later, earlier):
            return False
    for earlier, later in zip(rhyme, rhyme[1:]):
        if not is_diphthongal_step(earlier, later):
            return False
    return True
