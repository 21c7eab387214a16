import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonospace import (
    FrontBack,
    Manner,
    Marker,
    OpenClose,
    Phone,
    Place,
    ProsodicVector,
    QuantizationConfig,
    dequantize,
    is_valid_marker,
    load_alphabet,
    parse_symbol,
    quantize,
    render_symbol,
)
from phonospace.alphabet import (
    AlphabetError,
    InvalidMarkerError,
    UnknownSymbolError,
    marker_from_record,
    marker_to_record,
)


def sha256_of_repr(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_dimension_cardinalities():
    assert len(Manner) == 6
    assert len(FrontBack) == 5
    assert len(OpenClose) == 7
    assert len(Place) == 6


class TestLoad:
    def test_packaged_table(self, alphabet):
        assert alphabet.version == "core-1.0"
        assert len(alphabet) == 325

    def test_known_cells(self, alphabet, mk):
        assert is_valid_marker(alphabet, mk("vowel:front:close:glottal"))
        assert not is_valid_marker(alphabet, mk("nasal:front:close:glottal"))
        assert not is_valid_marker(alphabet, mk("vowel:front:close:velar"))

    def test_empty_document(self):
        a = load_alphabet("# nothing but comments\nversion\tempty-0\n")
        assert len(a) == 0 and a.version == "empty-0"

    def test_duplicate_symbol_rejected(self):
        doc = ("version\tx\n"
               "glottal\tvowel\tfront\tclose\ti\n"
               "glottal\tvowel\tback\tclose\ti\n")
        with pytest.raises(AlphabetError, match="duplicate symbol"):
            load_alphabet(doc)

    def test_duplicate_cell_rejected(self):
        doc = ("version\tx\n"
               "glottal\tvowel\tfront\tclose\ti\n"
               "glottal\tvowel\tfront\tclose\ty\n")
        with pytest.raises(AlphabetError, match="duplicate cell"):
            load_alphabet(doc)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(AlphabetError, match="unknown attribute"):
            load_alphabet("glottal\ttrill\tfront\tclose\tz\n")

    def test_vowel_outside_glottal_rejected(self):
        with pytest.raises(AlphabetError, match="non-glottal"):
            load_alphabet("velar\tvowel\tfront\tclose\tz\n")

    def test_symbol_with_colon_rejected(self):
        # parse_symbol reads any text with a colon as ASCII notation
        with pytest.raises(AlphabetError, match="^line 2: symbol 'Q:' contains ':'"):
            load_alphabet("version\tx\nglottal\tvowel\tfront\tclose\tQ:\n")


# sha256 of repr(tuple(alphabet)): the canonical order of the cells
ALPHABET_SHA256 = {
    "alphabet": "781e42462d7a174eba7b1b6056d97ab28eda70360df96aad9a9fd09102b728be",
    "mini_alphabet": "efa40ed328d94aef21cc878a5895c2504bca9d92dd08e74278a4a08b19190581",
}


class TestMarkerCodecs:
    @pytest.mark.parametrize("fixture", sorted(ALPHABET_SHA256))
    def test_every_cell_round_trips(self, request, fixture):
        for marker in request.getfixturevalue(fixture):
            assert Marker.from_ascii(marker.to_ascii()) == marker
            rec = marker_to_record(marker)
            assert list(rec) == ["m", "fb", "oc", "pl"]
            assert marker_from_record(rec) == marker

    @pytest.mark.parametrize("fixture", sorted(ALPHABET_SHA256))
    def test_canonical_order(self, request, fixture):
        cells = tuple(request.getfixturevalue(fixture))
        assert sha256_of_repr(cells) == ALPHABET_SHA256[fixture]


class TestSymbols:
    def test_vowel_glyph(self, alphabet, mk):
        assert render_symbol(alphabet, mk("vowel:front:close:glottal")) == "i"

    def test_glottal_closure_subscripts_vowel(self, alphabet, mk):
        assert render_symbol(alphabet, mk("closure:frontLike:open:glottal")) == "aₒ"

    def test_round_trip_every_cell(self, alphabet):
        for marker in alphabet:
            assert parse_symbol(alphabet, render_symbol(alphabet, marker)) == marker

    def test_ascii_notation_accepted(self, alphabet, mk):
        m = mk("plosive:back:close:palatAlveoLabial")
        assert parse_symbol(alphabet, "plosive:back:close:palatAlveoLabial") == m

    def test_unknown_glyph(self, alphabet):
        with pytest.raises(UnknownSymbolError):
            parse_symbol(alphabet, "zz")

    def test_invalid_marker_render(self, alphabet, mk):
        with pytest.raises(InvalidMarkerError):
            render_symbol(alphabet, mk("nasal:front:close:glottal"))

    def test_closure_symbols_derive_from_fricatives(self, alphabet):
        # closure glyph = fricative glyph (vowel glyph for glottal) + subscript o
        for marker in alphabet:
            if marker.manner is not Manner.CLOSURE:
                continue
            base_manner = Manner.VOWEL if marker.place is Place.GLOTTAL else Manner.FRICATIVE
            base = Marker(base_manner, marker.front_back, marker.open_close, marker.place)
            assert render_symbol(alphabet, marker) == render_symbol(alphabet, base) + "ₒ"


class TestSupportShape:
    def test_closures_match_fricatives(self, alphabet):
        for place in Place:
            closure = {(m.front_back, m.open_close) for m in alphabet
                       if m.place is place and m.manner is Manner.CLOSURE}
            fricative = {(m.front_back, m.open_close) for m in alphabet
                         if m.place is place and m.manner is Manner.FRICATIVE}
            assert closure == fricative, place

    def test_no_vowels_outside_glottal(self, alphabet):
        assert all(m.place is Place.GLOTTAL for m in alphabet if m.manner is Manner.VOWEL)

    def test_no_pharynglottal_nasals(self, alphabet):
        bad = {Place.PHARYNGEAL, Place.EPIGLOTTAL, Place.GLOTTAL}
        assert not any(m.manner is Manner.NASAL and m.place in bad for m in alphabet)


class TestQuantize:
    def test_duration_doubling(self):
        assert quantize(0.200, "D") == 4

    def test_reference_pitch_is_zero(self):
        assert quantize(100.0, "T") == 0

    def test_fronting_sign(self):
        # negative log-VTL change means fronting, positive units
        assert quantize(-0.1, "R") == 1

    def test_nonpositive_rejected(self):
        for dim in ("D", "T", "L"):
            with pytest.raises(ValueError):
                quantize(0.0, dim)

    def test_clamped_to_range(self):
        assert quantize(1e9, "D") == 64
        assert quantize(1e-9, "T", QuantizationConfig(reference_pitch_hz=1e6)) == -64

    def test_round_half_away_from_zero(self):
        from phonospace.alphabet import _round_half_away
        assert _round_half_away(0.5) == 1
        assert _round_half_away(-0.5) == -1
        assert _round_half_away(2.5) == 3   # not banker's rounding
        assert _round_half_away(-2.5) == -3
        assert _round_half_away(0.49) == 0

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_monotone_in_value(self, a, b):
        lo, hi = sorted((a, b))
        for dim in ("D", "T", "L"):
            assert quantize(lo, dim) <= quantize(hi, dim)

    @given(st.integers(min_value=-40, max_value=40))
    @settings(max_examples=60)
    def test_dequantize_round_trip(self, units):
        for dim in ("D", "T", "L", "R"):
            assert quantize(dequantize(units, dim), dim) == units

    def test_references_map_to_zero(self):
        cfg = QuantizationConfig(reference_duration_sec=0.25, reference_pitch_hz=220.0,
                                 reference_loudness=3.0)
        assert quantize(0.25, "D", cfg) == 0
        assert quantize(220.0, "T", cfg) == 0
        assert quantize(3.0, "L", cfg) == 0


QUANTIZE_GRID = [-1e308, -7.5, -1.0, -0.15, -0.1, -0.05, -0.0, 0.0, 1e-300, 1e-9, 1e-3, 0.0125,
                 0.05, 0.1, 0.1234, 0.2, 0.25, 0.5, 1.0, 2.0, 3.0, 3.7, 10.0, 100.0, 220.0, 440.0,
                 1e3, 1e6, 1e308]
CUSTOM_QUANTIZATION = QuantizationConfig(
    reference_duration_sec=0.25, reference_pitch_hz=220.0, reference_loudness=3.0,
    units_per_octave_d=3, units_per_octave_t=24, units_per_decade_l=20, units_per_nat_r=7,
    max_abs_units=40)


class TestQuantizeDigests:
    """quantize over QUANTIZE_GRID (its message where it refuses a value) and dequantize
    over -64..64, for D, T, L and R: sha256 of the repr of each list."""

    CASES = [
        (QuantizationConfig(),
         "603d5299ce0a2f7404330fee8adfdcfc4147de99c35cbb792afdc1f3da9464f7",
         "2fcda009bd65462e7b98fe3fb55a25585adef655d5b90d60cbb36e991c020e42"),
        (CUSTOM_QUANTIZATION,
         "932608ff1e0cb9ccca5127e9bd80e02ac675caf0d3e20fd52ba1cf0a75268bbd",
         "69f3ad288a5920033d5627d8597f391b05d51efbce051e4b38cb77d77d21ae2c"),
    ]

    @pytest.mark.parametrize("cfg,quantized,dequantized", CASES, ids=["default", "custom"])
    def test_digests(self, cfg, quantized, dequantized):
        def q(value, dim):
            try:
                return quantize(value, dim, cfg)
            except ValueError as exc:
                return str(exc)

        assert sha256_of_repr([q(v, dim) for dim in "DTLR" for v in QUANTIZE_GRID]) == quantized
        assert sha256_of_repr([dequantize(u, dim, cfg) for dim in "DTLR"
                               for u in range(-64, 65)]) == dequantized


class TestTypes:
    def test_prosodic_vector_bits(self):
        with pytest.raises(ValueError):
            ProsodicVector(N=2)
        with pytest.raises(ValueError):
            ProsodicVector(V=-1)

    def test_prosodic_vector_range(self):
        with pytest.raises(ValueError):
            ProsodicVector(T=65)
        ProsodicVector(T=64, D=-64)

    @pytest.mark.parametrize("name,value", [("T", float("nan")), ("D", 1.5), ("R", 3.0),
                                            ("N", True), ("V", False), ("L", "2"), ("D", None)])
    def test_prosodic_vector_requires_integers(self, name, value):
        message = f"field {name!r} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProsodicVector(**{name: value})

    @pytest.mark.parametrize("t0", [float("nan"), float("inf"), float("-inf"), True, "0.1", 10**400],
                             ids=["nan", "inf", "-inf", "True", "str", "int-past-float"])
    def test_phone_requires_finite_t0(self, mk, t0):
        message = f"field 't0' must be a finite number, got {t0!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Phone(mk("vowel:front:close:glottal"), t0=t0)

    @pytest.mark.parametrize("marker", ["vowel", 0, ("vowel", "front", "close", "glottal")],
                             ids=["str", "int", "tuple"])
    def test_phone_requires_marker(self, marker):
        message = f"field 'marker' must be a Marker or None, got {marker!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Phone(marker)

    @pytest.mark.parametrize("prosody", [{"R": 1}, (0, 0, 0, 0, 0, 0), 0], ids=["dict", "tuple", "int"])
    def test_phone_requires_prosodic_vector(self, mk, prosody):
        message = f"field 'prosody' must be a ProsodicVector or None, got {prosody!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Phone(mk("vowel:front:close:glottal"), prosody)

    @pytest.mark.parametrize("slot,value", [(0, "vowel"), (1, "front"), (2, None), (3, "glottal"),
                                            (3, Manner.VOWEL)])
    def test_marker_requires_members(self, mk, slot, value):
        fields = list(mk("vowel:front:close:glottal"))
        fields[slot] = value
        name, enum = Marker._fields[slot], (Manner, FrontBack, OpenClose, Place)[slot]
        message = f"field {name!r} must be a {enum.__name__}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Marker(*fields)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Marker(**dict(zip(Marker._fields, fields)))

    def test_replace_checks_the_new_field(self, mk):
        # _replace builds through _make, which used to skip the field check
        vowel = mk("vowel:front:close:glottal")
        message = "field 'manner' must be a Manner, got 'x'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vowel._replace(manner="x")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Marker._make(["x", *vowel[1:]])
        assert vowel._replace(open_close=OpenClose.OPEN) == mk("vowel:front:open:glottal")
        assert Marker._make(vowel) == vowel

    def test_marker_of_members(self, mk):
        m = Marker(Manner.VOWEL, FrontBack.FRONT, OpenClose.CLOSE, Place.GLOTTAL)
        assert m == mk("vowel:front:close:glottal") and repr(m) == "Marker(vowel:front:close:glottal)"

    def test_phone_keeps_finite_t0(self, mk):
        vowel = mk("vowel:front:close:glottal")
        assert Phone(vowel, t0=2).t0 == 2 and Phone(vowel, t0=-0.5).t0 == -0.5

    def test_null_phone(self):
        null = Phone(None)
        assert null.is_null and null.prosody is None and null.t0 is None
        with pytest.raises(ValueError):
            Phone(None, ProsodicVector())

    def test_real_phone_defaults_prosody(self, mk):
        p = Phone(mk("vowel:front:close:glottal"))
        assert p.prosody == ProsodicVector()

    def test_config_requires_positive_references(self):
        with pytest.raises(ValueError):
            QuantizationConfig(reference_duration_sec=0.0)


class TestQuantizeNonFinite:
    @pytest.mark.parametrize("dim", ["R", "D", "T", "L"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_with_dimension(self, dim, bad):
        with pytest.raises(ValueError, match=f"{dim} requires a finite value"):
            quantize(bad, dim)

    def test_finite_overflow_still_clamps(self):
        # -units_per_nat_r * 1e308 overflows to -inf before rounding
        assert quantize(1e308, "R") == -64
        assert quantize(-1e308, "R") == 64


class TestDequantizeUnits:
    @pytest.mark.parametrize("dim", ["R", "D", "T", "L"])
    @pytest.mark.parametrize("units", [float("nan"), 1.5, 3.0, True, "2", None],
                             ids=["nan", "1.5", "3.0", "True", "str", "None"])
    def test_requires_integer_units(self, dim, units):
        message = f"{dim} requires an integer number of units, got {units!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dequantize(units, dim)

    @pytest.mark.parametrize("dim", ["R", "D", "T", "L"])
    @pytest.mark.parametrize("units", [65, -65, 5000, -10**400],
                             ids=["65", "-65", "5000", "-10**400"])
    def test_requires_the_vector_range(self, dim, units):
        message = f"{dim} requires units in [-64, 64], got {units}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dequantize(units, dim, CUSTOM_QUANTIZATION)
