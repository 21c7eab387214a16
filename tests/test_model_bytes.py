"""sha256 of ``save_model`` output, pinned so the serializer can change but its bytes cannot.

Format 4 names every cell by its position in the alphabet's support, and
a trained model is saved as its counts. A varied model is saved as its
source plus its transform stack, so the ``straightened`` and
``syncopated`` documents are the ``trained`` one with a ``"transforms"``
field before its tables.

``tests/data`` holds the ``trained`` and ``straightened`` documents as the
format-2 and format-3 writer saved them (``LEGACY``), so the legacy reader
is checked on bytes that writer made.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    LanguageModel,
    ProsodicLimits,
    Regime,
    StressClass,
    TransformKind,
    TransformSpec,
    Unit,
    apply,
    generic_model,
    load_alphabet,
    load_model,
    save_model,
    score,
    train,
)
from phonospace.model import _index_for, model_to_json
from conftest import MINI_TABLE, random_valid_string, reference_json

DIGESTS = {
    "trained": "297526c5910d4dd8cd73018157addf5b3c46e1b55bef36154808a5ea39d72650",
    "straightened": "39c19c659ba0b4e267203cdee4593911f4a3b6ab2dd0e5f947e47b004d830285",
    "syncopated": "d1af88e480ca9510226263988d2c82d5978829a79beb5d447b862073cb80d5c8",
    "v1_resaved": "4b739277ebdeb38504bc9ae6b0ff19b1044383f8536cf9eab587381de4430aca",
    "partial_support": "196aa714efc281ff9c27524477c1155c574ad43252daee8fac3f9375da90d5d3",
    # the LEGACY files, loaded and saved again: format 4 with probability rows
    "trained_v2_resaved": "e3cf3bcdb09f9fb7dc48f647ab44ddc109542fc3f64a7a65339639ab4aedba3c",
    "straightened_v3_resaved": "f839a02515485ffb9c2b75e9c50a6da22fdfdf27071b9108499d8fd97ddc6ee5",
}

DATA = Path(__file__).parent / "data"
# per model: its file under tests/data, and that file's sha256, the digest its writer gave it
LEGACY = {
    "trained": ("trained_v2.json", "c46ca0c574d48b4f150e090ec94d4e63f6bb94ab7446217683519c68cbc64162"),
    "straightened": ("straightened_v3.json",
                     "e69227d2a2077bc5360c8149c7686744950946f6f19cf231ce9e01b939456abd"),
}


def digest(model) -> str:
    buf = io.StringIO()
    save_model(model, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def trained(alphabet):
    rng = np.random.default_rng(7)
    return train([random_valid_string(rng, alphabet, max_len=14) for _ in range(30)],
                 alphabet=alphabet)


def straightened(trained):
    return apply(trained, Regime(rate=2.0), TransformSpec(TransformKind.STRAIGHTENING, 0.5))


def test_trained(trained):
    assert digest(trained) == DIGESTS["trained"]


def test_straightened(trained):
    assert digest(straightened(trained)) == DIGESTS["straightened"]


def test_syncopated(trained):
    spec = TransformSpec(TransformKind.SYNCOPE, 0.5)
    assert digest(apply(trained, Regime(rate=2.0), spec)) == DIGESTS["syncopated"]


def test_version_one_fixture_resaved(mini_alphabet):
    path = DATA / "mini_model_v1.json"
    assert digest(load_model(str(path), mini_alphabet)) == DIGESTS["v1_resaved"]


def test_partial_support_saved_dense(alphabet):
    # a distribution over fewer targets than the alphabet has is written without a floor
    cells = list(alphabet)
    key = CondKey(Unit.RHYME, StressClass.STRESSED, (cells[-1],))
    d = CategoricalDist([(None, 0.25), (cells[3], 0.5), (cells[1], 0.25)])
    model = LanguageModel(alphabet=alphabet, tables={key: d}, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
    assert digest(model) == DIGESTS["partial_support"]


def test_reference_serializer_gives_the_trained_digest(trained):
    text = reference_json(trained) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LEGACY["trained"][1]


@pytest.fixture(scope="module")
def models(trained):
    return {"trained": trained, "straightened": straightened(trained)}


@pytest.mark.parametrize("name", list(LEGACY))
class TestLegacyFiles:
    def test_file_is_what_the_legacy_writer_wrote(self, models, name):
        file, sha = LEGACY[name]
        data = (DATA / file).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha
        assert data.decode() == reference_json(models[name]) + "\n"

    def test_loads_as_the_format_4_reload(self, alphabet, models, name):
        old = load_model(str(DATA / LEGACY[name][0]), alphabet)
        new = load_model(model_to_json(models[name]), alphabet)
        assert old.tables.keys() == new.tables.keys()
        for key, d in new.tables.items():
            assert old.tables[key] == d and old.tables[key].entries == d.entries, key
        assert (old.limits, old.transforms) == (new.limits, new.transforms)
        assert (old.epsilon, old.alpha, old.quantization) == (new.epsilon, new.alpha, new.quantization)
        rng = np.random.default_rng(8)
        heldout = [random_valid_string(rng, alphabet, max_len=14) for _ in range(40)]
        assert [repr(score(old, s)) for s in heldout] == [repr(score(new, s)) for s in heldout]

    def test_resaved_as_format_4(self, alphabet, name):
        path = DATA / LEGACY[name][0]
        assert digest(load_model(str(path), alphabet)) == DIGESTS[f"{path.stem}_resaved"]


def test_signed_zeros_and_integer_probabilities(alphabet):
    # 0.0 and -0.0 are equal but have different reprs; so are 1 and 1.0
    cells = list(alphabet)
    base = generic_model(alphabet).generic_dist(CondKey(Unit.ONSET, StressClass.STRESSED, (None,)))
    n = len(base.support())
    dists = [
        base.rebuilt({None: 0.5, cells[0]: 0.0, cells[1]: -0.0}, 0.5 / (n - 3)),
        base.rebuilt({None: 1}, 0.0),
        CategoricalDist([(None, 0.25), *((c, 0.25) for c in cells[:3]),
                         (cells[3], 0.0), (cells[4], -0.0)]),
        CategoricalDist([(None, 1)]),
    ]
    tables = {CondKey(Unit.RHYME, StressClass.STRESSED, (c,)): d for c, d in zip(cells, dists)}
    model = LanguageModel(alphabet=alphabet, tables=tables, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
    assert [d.exceptions for d in dists[:2]] == [{None: 0.5, cells[0]: 0.0, cells[1]: -0.0}, {None: 1}]
    text = model_to_json(model)
    # the null phone is position 0; the second dist has a floor, the fourth lists its support
    assert '"-0.0"' in text and '[0,"1.0"],"0.0"]' in text and '[0,"1.0"]]' in text
    # the legacy writer wrote the same probability texts
    resaved = model_to_json(load_model(text, alphabet))
    assert model_to_json(load_model(reference_json(model), alphabet)) == resaved


def test_records_in_another_key_order_load_alike(trained, alphabet):
    legacy = reference_json(trained)
    text = model_to_json(load_model(legacy, alphabet))
    doc = json.loads(legacy)

    def reorder(record):
        return dict(reversed(record.items()))

    for entry in doc["tables"]:
        entry["key"]["context"] = [reorder(r) for r in entry["key"]["context"]]
        entry["dist"] = [[reorder(r), p] for r, p in entry["dist"]]
    reordered = json.dumps(doc)
    assert '{"pl":' in reordered
    assert model_to_json(load_model(reordered, alphabet)) == text


def test_format_4_load_builds_no_record_table():
    # a position indexes the support itself: only a version 1-3 document needs the records
    rng = np.random.default_rng(3)
    writer, reader = load_alphabet(MINI_TABLE), load_alphabet(MINI_TABLE)
    text = model_to_json(train([random_valid_string(rng, writer, max_len=14) for _ in range(5)],
                               alphabet=writer))
    model = load_model(text, reader)
    index = _index_for(reader)
    assert "digest" in vars(index) and "targets" not in vars(index)
    assert model_to_json(model) == text
    load_model(reference_json(model), reader)
