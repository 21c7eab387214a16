import numpy as np
import pytest

from phonospace import (
    Manner,
    Marker,
    Phone,
    ProsodicVector,
    default_alphabet,
    load_alphabet,
    string_violations,
)

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
