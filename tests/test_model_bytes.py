"""sha256 of ``save_model`` output, pinned so the serializer can change but its bytes cannot.

The untransformed digests were taken from the serializer that built one
JSON object per table entry and encoded the whole document with
``json.dumps``. A varied model is saved as its untransformed tables plus
its transform stack (format 3), so the ``straightened`` and
``syncopated`` documents are the ``trained`` one with a ``"transforms"``
field before its tables.
"""

import dataclasses
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
    train,
)
from phonospace.alphabet import marker_to_record
from phonospace.model import _index_for, model_to_json
from conftest import MINI_TABLE, random_valid_string

DIGESTS = {
    "trained": "c46ca0c574d48b4f150e090ec94d4e63f6bb94ab7446217683519c68cbc64162",
    "straightened": "e69227d2a2077bc5360c8149c7686744950946f6f19cf231ce9e01b939456abd",
    "syncopated": "c73a2a1e374fb32c4fb28adc77d1ccf773483095eda9c36fc2252c40369eb26f",
    "v1_resaved": "c269140e6ae806ed42f125f313d2be3403f960c8cccbb66711f511c2e3355be1",
    "partial_support": "befb200fac5ecd4e93e4135fa6269bf66bcf55792cb8338d2cf5cc6f9eea85da",
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


def test_trained(trained):
    assert digest(trained) == DIGESTS["trained"]


def test_straightened(trained):
    spec = TransformSpec(TransformKind.STRAIGHTENING, 0.5)
    assert digest(apply(trained, Regime(rate=2.0), spec)) == DIGESTS["straightened"]


def test_syncopated(trained):
    spec = TransformSpec(TransformKind.SYNCOPE, 0.5)
    assert digest(apply(trained, Regime(rate=2.0), spec)) == DIGESTS["syncopated"]


def test_version_one_fixture_resaved(mini_alphabet):
    path = Path(__file__).parent / "data" / "mini_model_v1.json"
    assert digest(load_model(str(path), mini_alphabet)) == DIGESTS["v1_resaved"]


def test_partial_support_saved_dense(alphabet):
    # a distribution over fewer targets than the alphabet has is written without a floor
    cells = list(alphabet)
    key = CondKey(Unit.RHYME, StressClass.STRESSED, (cells[-1],))
    d = CategoricalDist([(None, 0.25), (cells[3], 0.5), (cells[1], 0.25)])
    model = LanguageModel(alphabet=alphabet, tables={key: d}, epsilon=0.05, alpha=0.0,
                          limits=ProsodicLimits.full())
    assert digest(model) == DIGESTS["partial_support"]


def reference_json(model) -> str:
    """``json.dumps`` of the document object, as the serializer the digests came from built it.

    Only for a model without a transform stack.
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
        "format": "phonospace-model-2",
        "alphabet_version": model.alphabet.version,
        "epsilon": repr(model.epsilon),
        "alpha": repr(model.alpha),
        "quantization": {name: repr(v) if type(v) is float else v
                         for name, v in dataclasses.asdict(model.quantization).items()},
        "limits": model.limits.to_json(),
        "tables": tables,
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def test_reference_serializer_gives_the_trained_digest(trained):
    text = reference_json(trained) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS["trained"]


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
    assert text == reference_json(model)
    assert '"-0.0"' in text and '[{"null":true},"1"]' in text


def test_records_in_another_key_order_load_alike(trained, alphabet):
    text = model_to_json(trained)
    doc = json.loads(text)

    def reorder(record):
        return dict(reversed(record.items()))

    for entry in doc["tables"]:
        entry["key"]["context"] = [reorder(r) for r in entry["key"]["context"]]
        entry["dist"] = [[reorder(r), p] for r, p in entry["dist"]]
    reordered = json.dumps(doc)
    assert '{"pl":' in reordered
    assert model_to_json(load_model(reordered, alphabet)) == text


def test_load_builds_no_record_text():
    # a verb that only loads reads records through the table of their items alone
    rng = np.random.default_rng(3)
    writer, reader = load_alphabet(MINI_TABLE), load_alphabet(MINI_TABLE)
    text = model_to_json(train([random_valid_string(rng, writer, max_len=14) for _ in range(5)],
                               alphabet=writer))
    model = load_model(text, reader)
    index = _index_for(reader)
    assert "targets" in vars(index) and "records" not in vars(index)
    assert model_to_json(model) == text
    assert "records" in vars(index)
