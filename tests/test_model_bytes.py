"""sha256 of ``save_model`` output, pinned so the serializer can change but its bytes cannot.

The untransformed digests were taken from the serializer that built one
JSON object per table entry and encoded the whole document with
``json.dumps``. A varied model is saved as its untransformed tables plus
its transform stack (format 3), so the ``straightened`` and
``syncopated`` documents are the ``trained`` one with a ``"transforms"``
field before its tables.
"""

import hashlib
import io
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
    load_model,
    save_model,
    train,
)
from conftest import random_valid_string

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
