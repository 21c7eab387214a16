import dataclasses
import json

import numpy as np
import pytest

from phonospace import (
    CondKey,
    Manner,
    Marker,
    Phone,
    ProsodicVector,
    default_alphabet,
    load_alphabet,
    string_violations,
)
from phonospace.alphabet import marker_to_record

# 10-marker restricted alphabet used by the oracle and recovery experiments
MINI_TABLE = """\
# restricted test alphabet
version\tmini-1.0
palatAlveoLabial\tclosure\tcentral\tclose\tQ
palatAlveoLabial\tplosive\tcentral\tclose\tt
palatAlveoLabial\tfricative\tcentral\tclose\tF
palatAlveoLabial\tnasal\tcentral\tclose\tn
palatAlveoLabial\tapproximant\tcentral\tclose\tr
palatAlveoLabial\tapproximant\tfront\tclose\tj
palatAlveoLabial\tplosive\tback\tclose\tp
palatAlveoLabial\tnasal\tback\tclose\tm
glottal\tvowel\tfront\tclose\ti
glottal\tvowel\tback\tcloseMid\to
"""


@pytest.fixture(scope="session")
def alphabet():
    return default_alphabet()


@pytest.fixture(scope="session")
def mini_alphabet():
    return load_alphabet(MINI_TABLE)


@pytest.fixture()
def mk():
    return Marker.from_ascii


def random_prosody(rng, span=8):
    return ProsodicVector(
        R=int(rng.integers(-span, span + 1)),
        N=int(rng.integers(0, 2)),
        V=int(rng.integers(0, 2)),
        T=int(rng.integers(-span, span + 1)),
        D=int(rng.integers(-span, span + 1)),
        L=int(rng.integers(-span, span + 1)),
    )


def random_valid_string(rng, alphabet, max_len=30, prosody_span=8):
    """A uniformly messy valid phone string over the given alphabet."""
    cells = sorted(alphabet.cells, key=Marker.sort_key)
    closures = [m for m in cells if m.manner is Manner.CLOSURE]
    others = [m for m in cells if m.manner is not Manner.CLOSURE]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    for _ in range(100):
        n = int(rng.integers(3, max_len + 1))
        markers = [pick(closures)]
        for _ in range(n - 2):
            run = 0
            for m in reversed(markers):
                if m.manner is Manner.CLOSURE:
                    run += 1
                else:
                    break
            # never three closures in a row; keep closures a minority overall
            if run >= 2 or rng.random() < 0.7:
                markers.append(pick(others))
            else:
                markers.append(pick(closures))
        last_run = 0
        for m in reversed(markers):
            if m.manner is Manner.CLOSURE:
                last_run += 1
            else:
                break
        if last_run >= 2:
            markers[-1] = pick(others)
        markers.append(pick(closures))
        phones = [Phone(m, random_prosody(rng, prosody_span)) for m in markers]
        if not string_violations(phones, alphabet):
            return phones
    raise AssertionError("random string generator failed to produce a valid string")


def legal_plans(rng, alphabet, n=300, max_len=14, max_syllables=6):
    """(collapsed string, plan) under every legal class sequence, for n random valid strings.

    Strings with more than max_syllables syllables are skipped.
    """
    from phonospace import dependency_plan, legal_stress_sequences, parse_and_plan

    for _ in range(n):
        s, parse, *_ = parse_and_plan(random_valid_string(rng, alphabet, max_len=max_len), alphabet)
        if len(parse.syllables) <= max_syllables:
            for classes in legal_stress_sequences(len(parse.syllables)):
                yield s, dependency_plan(parse, classes)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def reference_json(model) -> str:
    """A version-2 document of the model (version 3 with its transform stack), as ``json.dumps`` text.

    This is the serializer that wrote formats 2 and 3, one JSON object per
    table entry with every cell named by its attribute record. The library
    reads those formats but writes only format 4, so tests that feed the
    legacy reader a document, intact or mutated, take it from here.
    """
    def record(t):
        return {"null": True} if t is None else marker_to_record(t)

    full = (None, *model.alphabet)  # every cell plus the null phone, in canonical order
    tables = []
    for key in sorted(model.tables, key=CondKey.sort_key):
        d = model.tables[key]
        entry = {"key": {"unit": key.unit.value, "stress": key.stress.value,
                         "context": [record(t) for t in key.context]}}
        if d.support() == full:
            entry["dist"] = [[record(t), repr(p)] for t, p in d.entries if t in d.exceptions]
            entry["floor"] = repr(d.floor)
        else:
            entry["dist"] = [[record(t), repr(p)] for t, p in d.entries]
        tables.append(entry)
    doc = {
        "format": "phonospace-model-3" if model.transforms else "phonospace-model-2",
        "alphabet_version": model.alphabet.version,
        "epsilon": repr(model.epsilon),
        "alpha": repr(model.alpha),
        "quantization": {name: repr(v) if type(v) is float else v
                         for name, v in dataclasses.asdict(model.quantization).items()},
        "limits": model.limits.to_json(),
    }
    if model.transforms:
        doc["transforms"] = [t.to_json() for t in model.transforms]
    doc["tables"] = tables
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)
