"""Formats 1-3 are read as the probability rows they hold, by the format-4 row reader.

A legacy entry names its cells by their attribute records; the reader
turns each into its position and checks the row as it checks a format-4
one, so a row error names the entry's 1-based index. The writer writes
every probability as the ``repr`` of a float, so a hand-built model whose
probabilities are other numbers saves a file that reloads and re-saves
byte for byte.
"""

import json

import numpy as np
import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    LanguageModel,
    ProsodicLimits,
    StressClass,
    Unit,
    generic_model,
    load_model,
    train,
)
from phonospace.model import _index_for, _record, _target_from_json, model_to_json
from conftest import random_valid_string, reference_json
from test_cli import mini_path, run  # noqa: F401 (mini_path is a fixture)


def test_float_like_probabilities_resave_byte_for_byte(alphabet):
    cells = list(alphabet)
    key = CondKey(Unit.ONSET, StressClass.STRESSED, (None,))
    base = generic_model(alphabet).generic_dist(key)
    n = len(base.support())
    dists = [
        base.rebuilt({None: np.float64(0.5)}, np.float64(0.5) / (n - 1)),
        base.rebuilt({None: True}, 0),
        CategoricalDist([(None, np.float64(0.25)), (cells[0], 0.75)]),
        CategoricalDist([(None, True)]),
        CategoricalDist([(None, 1)]),
    ]
    tables = {CondKey(Unit.RHYME, StressClass.STRESSED, (c,)): d for c, d in zip(cells, dists)}
    model = LanguageModel(alphabet=alphabet, tables=tables, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
    text = model_to_json(model)
    loaded = load_model(text, alphabet)
    assert loaded.tables == tables
    assert model_to_json(loaded) == text


def legacy_document(mini_alphabet) -> dict:
    rng = np.random.default_rng(4)
    return json.loads(reference_json(train(
        [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2) for _ in range(5)],
        alphabet=mini_alphabet)))


@pytest.mark.parametrize("entry", [0, 2, -1])
def test_legacy_target_listed_twice(tmp_path, mini_alphabet, mini_path, entry):
    doc = legacy_document(mini_alphabet)
    listing = doc["tables"][entry]["dist"]
    record = listing[0][0]
    listing.append([record, "0.0"])
    row = range(1, len(doc["tables"]) + 1)[entry]
    position = _index_for(mini_alphabet).positions[_target_from_json(record, mini_alphabet)]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["--alphabet", mini_path, "info", "--model", str(path)])
    assert (code, out, err) == (3, "", f"error: table row {row}: position {position} listed twice\n")


@pytest.mark.parametrize("version", ["phonospace-model-1", "phonospace-model-2"])
def test_floorless_entries_full_or_partial(mini_alphabet, version):
    # a listing of every target is over the full support; a shorter one is over what it lists
    cells = list(mini_alphabet)
    full = (None, *cells)
    listed = {"partial": [(None, 0.5), (cells[0], 0.5)]}
    listed["every target"] = listed["partial"] + [(t, 0.0) for t in cells[1:]]
    doc = json.loads(reference_json(generic_model(mini_alphabet)))
    doc["format"] = version
    keys = {name: CondKey(Unit.RHYME, StressClass.STRESSED, (cells[i],)) for i, name in enumerate(listed)}
    doc["tables"] = [{"key": {"unit": key.unit.value, "stress": key.stress.value,
                              "context": [_record(c) for c in key.context]},
                      "dist": [[_record(t), repr(p)] for t, p in listed[name]]}
                     for name, key in keys.items()]
    tables = load_model(json.dumps(doc), mini_alphabet).tables
    partial, every = tables[keys["partial"]], tables[keys["every target"]]
    assert partial.support() == (None, cells[0]) and partial.entries == ((None, 0.5), (cells[0], 0.5))
    assert partial == CategoricalDist(listed["partial"])
    assert every.support() == full and every.floor == 0.0
    assert every.exceptions == {None: 0.5, cells[0]: 0.5}
