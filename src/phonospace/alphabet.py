"""Phonetic and prosodic value spaces.

The phonetic subspace is the 4-dimensional product manner x frontBack x
openClose x place; a :class:`Marker` is one point in it, and an
:class:`Alphabet` is the set of populated cells shipped as a versioned
data file plus the two inverse maps between markers and display symbols.
The prosodic subspace holds six directly measurable values (R, N, V, T,
D, L); the scalar ones live in quantized logarithmic units produced by
:func:`quantize`.

Symbols have a canonical machine form, the colon-joined attribute names
``manner:frontBack:openClose:place``, accepted everywhere a glyph is;
the Unicode glyphs in the data file are a presentation layer (base glyph
plus at most one superscript plus at most one subscript-o for closures).
"""

from __future__ import annotations

import math
import sys
import unicodedata
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterator, NamedTuple, Optional, Sequence


class IdentityEnum(Enum):
    """Base of every phonospace enum: members are singletons, so they hash by identity, in C."""

    __hash__ = object.__hash__


class Manner(IdentityEnum):
    CLOSURE = "closure"
    PLOSIVE = "plosive"
    FRICATIVE = "fricative"
    NASAL = "nasal"
    APPROXIMANT = "approximant"
    VOWEL = "vowel"


class FrontBack(IdentityEnum):
    FRONT = "front"
    FRONT_LIKE = "frontLike"
    CENTRAL = "central"
    BACK_LIKE = "backLike"
    BACK = "back"


class OpenClose(IdentityEnum):
    CLOSE = "close"
    CLOSE_LIKE = "closeLike"
    CLOSE_MID = "closeMid"
    MID = "mid"
    OPEN_MID = "openMid"
    OPEN_LIKE = "openLike"
    OPEN = "open"


class Place(IdentityEnum):
    PAL = "palatAlveoLabial"
    VELAR = "velar"
    UVULAR = "uvular"
    PHARYNGEAL = "pharyngeal"
    EPIGLOTTAL = "epiglottal"
    GLOTTAL = "glottal"


# Marker's four dimensions in field order: the key of each in corpus and model records, and its enum
_MARKER_DIMENSIONS = {"m": Manner, "fb": FrontBack, "oc": OpenClose, "pl": Place}
# per dimension, attribute name -> member
_MEMBERS = tuple({member.value: member for member in enum} for enum in _MARKER_DIMENSIONS.values())
# each member's position within its dimension: the canonical order of cells
_POSITION = {member: i for enum in _MARKER_DIMENSIONS.values() for i, member in enumerate(enum)}
# a record's four attribute names in ASCII notation
_RECORD_NOTATION = ":".join(f"{{{key}}}" for key in _MARKER_DIMENSIONS)


class Marker(NamedTuple):
    """A point in the phonetic subspace."""

    manner: Manner
    front_back: FrontBack
    open_close: OpenClose
    place: Place

    def to_ascii(self) -> str:
        return ":".join(member.value for member in self)

    @classmethod
    @lru_cache(maxsize=None)  # only valid notation returns, so at most one entry per point of the space
    def from_ascii(cls, text: str) -> "Marker":
        parts = text.split(":")
        if len(parts) != 4:
            raise UnknownSymbolError(f"malformed marker notation: {text!r}")
        try:
            return _marker_of_names(parts)
        except KeyError as exc:
            raise UnknownSymbolError(f"unknown attribute name {exc.args[0]!r} in {text!r}") from None

    def sort_key(self) -> tuple:
        return tuple(map(_POSITION.__getitem__, self))

    def __repr__(self) -> str:  # compact, round-trippable through from_ascii
        return f"Marker({self.to_ascii()})"


def _checked_marker(cls, *fields, **named) -> Marker:
    """``Marker(...)``: each field must be a member of its dimension's enum.

    ``typing.NamedTuple`` allows no ``__new__`` in the class body, so the
    check wraps the generated one, and ``Marker._make`` (which ``_replace``
    calls) builds through it too. ``_marker_of_names`` builds without the
    check: it reads only ``_MEMBERS``.
    """
    marker = _unchecked_marker(cls, *fields, **named)
    for name, enum, member in zip(Marker._fields, _MARKER_DIMENSIONS.values(), marker):
        if type(member) is not enum:
            raise ValueError(f"field {name!r} must be a {enum.__name__}, got {member!r}")
    return marker


_unchecked_marker, _unchecked_make = Marker.__new__, Marker._make
Marker.__new__ = staticmethod(_checked_marker)
Marker._make = classmethod(lambda cls, iterable: _checked_marker(cls, *iterable))


def _marker_of_names(names: Sequence[str]) -> Marker:
    """The marker with the given attribute names in field order; KeyError for an unknown name."""
    return _unchecked_make(map(dict.__getitem__, _MEMBERS, names))


def marker_to_record(marker: Marker) -> dict:
    """The marker's attributes under the record keys of corpus and model files."""
    return {key: member.value for key, member in zip(_MARKER_DIMENSIONS, marker)}


def marker_from_record(rec: dict) -> Marker:
    """Inverse of marker_to_record: KeyError for a missing key, UnknownSymbolError for a bad value."""
    return Marker.from_ascii(_RECORD_NOTATION.format_map(rec))


MAX_ABS_UNITS = 64
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ProsodicVector:
    """Six quantized prosodic values.

    R: signed log change of effective vocal tract length (positive =
    fronting); N / V: nasal / first formant on-off bits; T, D, L:
    quantized log pitch, duration and loudness.
    """

    R: int = 0
    N: int = 0
    V: int = 0
    T: int = 0
    D: int = 0
    L: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():  # the fields, in order
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"field {name!r} must be an integer, got {value!r}")
        if self.N not in (0, 1) or self.V not in (0, 1):
            raise ValueError("N and V are binary")
        for name in ("R", "T", "D", "L"):
            if abs(getattr(self, name)) > MAX_ABS_UNITS:
                raise ValueError(f"{name} outside quantization range [-{MAX_ABS_UNITS}, {MAX_ABS_UNITS}]")


@dataclass(frozen=True)
class Phone:
    """A marker with prosody and optional onset time, or the null phone."""

    marker: Optional[Marker]
    prosody: Optional[ProsodicVector] = None
    t0: Optional[float] = None

    def __post_init__(self):
        if self.marker is not None and not isinstance(self.marker, Marker):
            raise ValueError(f"field 'marker' must be a Marker or None, got {self.marker!r}")
        if self.prosody is not None and not isinstance(self.prosody, ProsodicVector):
            raise ValueError(f"field 'prosody' must be a ProsodicVector or None, got {self.prosody!r}")
        if self.marker is None and (self.prosody is not None or self.t0 is not None):
            raise ValueError("the null phone carries no prosody or time")
        t0 = self.t0
        # the comparison also rejects NaN and integers too large for a float
        if t0 is not None and (type(t0) not in (int, float) or not abs(t0) <= _FLOAT_MAX):
            raise ValueError(f"field 't0' must be a finite number, got {t0!r}")
        if self.marker is not None and self.prosody is None:
            object.__setattr__(self, "prosody", ProsodicVector())

    @property
    def is_null(self) -> bool:
        return self.marker is None


class AlphabetError(ValueError):
    """Malformed alphabet document."""


class UnknownSymbolError(KeyError):
    """Symbol text that maps to no alphabet cell."""


class InvalidMarkerError(KeyError):
    """Marker that is not a populated cell of the alphabet."""


@dataclass(frozen=True, eq=False)  # identity hash: used as a cache key
class Alphabet:
    version: str
    cells: frozenset
    _symbol_of: dict = field(repr=False)
    _marker_of: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, marker: Marker) -> bool:
        return marker in self.cells

    def __iter__(self) -> Iterator[Marker]:
        return iter(sorted(self.cells, key=Marker.sort_key))

    def symbol_of(self, marker: Marker) -> str:
        try:
            return self._symbol_of[marker]
        except KeyError:
            raise InvalidMarkerError(f"not an alphabet cell: {marker!r}") from None

    def marker_of(self, symbol: str) -> Marker:
        try:
            return self._marker_of[unicodedata.normalize("NFC", symbol)]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol: {symbol!r}") from None


def is_valid_marker(alphabet: Alphabet, marker: Marker) -> bool:
    """True iff the marker is a populated cell."""
    return marker in alphabet.cells


def render_symbol(alphabet: Alphabet, marker: Marker) -> str:
    """Display glyph for a valid marker (closure cells carry the o subscript)."""
    return alphabet.symbol_of(marker)


def parse_symbol(alphabet: Alphabet, text: str) -> Marker:
    """Inverse of render_symbol; also accepts the colon ASCII notation."""
    if ":" in text:
        marker = Marker.from_ascii(text)
        if marker not in alphabet.cells:
            raise UnknownSymbolError(f"marker {text!r} is not a populated cell")
        return marker
    return alphabet.marker_of(text)


def load_alphabet(table_data: str) -> Alphabet:
    """Build an Alphabet from the tab-separated cell listing.

    One record per populated cell: place, manner, frontBack, openClose,
    symbol, optional note (it documents the table; the loader ignores it).
    Lines starting with ``#`` are comments; a ``version<TAB>...`` line
    names the table revision. Duplicate markers or symbols, unknown
    attribute names, vowel cells outside the glottal place and symbols
    containing ``:`` (reserved for ASCII notation) are rejected.
    """
    version = ""
    symbol_of: dict = {}
    marker_of: dict = {}
    for lineno, raw in enumerate(table_data.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "version":
            if len(fields) < 2 or not fields[1].strip():
                raise AlphabetError(f"line {lineno}: empty version")
            version = fields[1].strip()
            continue
        if len(fields) < 5:
            raise AlphabetError(f"line {lineno}: expected 5+ tab-separated fields")
        place_s, manner_s, fb_s, oc_s, symbol = (f.strip() for f in fields[:5])
        try:
            marker = _marker_of_names((manner_s, fb_s, oc_s, place_s))
        except KeyError as exc:
            raise AlphabetError(f"line {lineno}: unknown attribute name {exc.args[0]!r}") from None
        if marker.manner is Manner.VOWEL and marker.place is not Place.GLOTTAL:
            raise AlphabetError(f"line {lineno}: vowel entry with non-glottal place")
        symbol = unicodedata.normalize("NFC", symbol)
        if not symbol:
            raise AlphabetError(f"line {lineno}: empty symbol")
        if ":" in symbol:
            raise AlphabetError(f"line {lineno}: symbol {symbol!r} contains ':', "
                                "which is reserved for ASCII notation")
        if marker in symbol_of:
            raise AlphabetError(f"line {lineno}: duplicate cell {marker!r}")
        if symbol in marker_of:
            raise AlphabetError(f"line {lineno}: duplicate symbol {symbol!r}")
        symbol_of[marker] = symbol
        marker_of[symbol] = marker
    return Alphabet(version=version, cells=frozenset(symbol_of),
                    _symbol_of=symbol_of, _marker_of=marker_of)


def load_alphabet_path(path) -> Alphabet:
    with open(path, "r", encoding="utf-8") as fh:
        return load_alphabet(fh.read())


@lru_cache(maxsize=None)
def default_alphabet() -> Alphabet:
    """The packaged core table."""
    text = resources.files("phonospace.data").joinpath("alphabet.tsv").read_text("utf-8")
    return load_alphabet(text)


# ---------------------------------------------------------------------------
# prosodic quantization


@dataclass(frozen=True)
class QuantizationConfig:
    """References and per-octave/decade/nat unit counts for R, T, D, L.

    The defaults give semitone-like pitch units, quarter-octave duration
    units, decibel-like loudness units and deci-nat rounding units.
    """

    reference_duration_sec: float = 0.100
    reference_pitch_hz: float = 100.0
    reference_loudness: float = 1.0
    units_per_octave_d: int = 4
    units_per_octave_t: int = 12
    units_per_decade_l: int = 10
    units_per_nat_r: int = 10
    max_abs_units: int = MAX_ABS_UNITS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float:  # references, stored as floats
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be an int or a float, got {value!r}")
                if not 0 < value <= sys.float_info.max:  # also rejects NaN and integers too large
                    raise ValueError(f"{f.name} must be finite and strictly positive, got {value!r}")
                object.__setattr__(self, f.name, float(value))
            elif type(value) is not int or value < 1:  # unit counts; bool is an int subclass
                raise ValueError(f"{f.name} must be an integer of at least 1, got {value!r}")
        # a prosodic vector holds at most MAX_ABS_UNITS per dimension
        if self.max_abs_units > MAX_ABS_UNITS:
            raise ValueError(f"max_abs_units must be at most {MAX_ABS_UNITS}, got {self.max_abs_units}")


DEFAULT_QUANTIZATION = QuantizationConfig()

# the logarithmic dimensions: unit-count field, reference field, logarithm and its base;
# R is linear in the change of log vocal tract length
_LOG_SCALES = {
    "D": ("units_per_octave_d", "reference_duration_sec", math.log2, 2.0),
    "T": ("units_per_octave_t", "reference_pitch_hz", math.log2, 2.0),
    "L": ("units_per_decade_l", "reference_loudness", math.log10, 10.0),
}
_DIMENSIONS = (*_LOG_SCALES, "R")


def _round_half_away(x: float) -> int:
    # fixed rounding mode for bit-exact cross-platform output
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def quantize(value: float, dimension: str, cfg: QuantizationConfig = DEFAULT_QUANTIZATION) -> int:
    """Map a linear measurement into signed quantized log units.

    D/T take a positive duration (s) / pitch (Hz), L a positive loudness;
    R takes the (signed) change in log vocal tract length and negates it
    so that positive means fronting. Finite results clamp into
    ``[-max_abs_units, max_abs_units]``; NaN and infinities are rejected.
    """
    if dimension not in _DIMENSIONS:
        raise ValueError(f"dimension must be one of {_DIMENSIONS}, got {dimension!r}")
    if not math.isfinite(value):
        raise ValueError(f"{dimension} requires a finite value, got {value!r}")
    if dimension == "R":
        raw = -cfg.units_per_nat_r * value
    else:
        if value <= 0:
            raise ValueError(f"{dimension} requires a strictly positive value")
        per, reference, log, _ = _LOG_SCALES[dimension]
        raw = getattr(cfg, per) * log(value / getattr(cfg, reference))
    # clamped before rounding, so a finite value whose product overflows clamps too
    return _round_half_away(max(-cfg.max_abs_units, min(cfg.max_abs_units, raw)))


def dequantize(units: int, dimension: str, cfg: QuantizationConfig = DEFAULT_QUANTIZATION) -> float:
    """Linear value at the center of a quantized unit (inverse of quantize)."""
    if dimension not in _DIMENSIONS:
        raise ValueError(f"dimension must be one of {_DIMENSIONS}, got {dimension!r}")
    if type(units) is not int:  # bool is an int subclass
        raise ValueError(f"{dimension} requires an integer number of units, got {units!r}")
    # a ProsodicVector's range, not cfg.max_abs_units: any vector's units dequantize
    if abs(units) > MAX_ABS_UNITS:
        raise ValueError(f"{dimension} requires units in [-{MAX_ABS_UNITS}, {MAX_ABS_UNITS}], got {units}")
    if dimension == "R":
        return -units / cfg.units_per_nat_r
    per, reference, _, base = _LOG_SCALES[dimension]
    return getattr(cfg, reference) * base ** (units / getattr(cfg, per))
