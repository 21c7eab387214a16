"""A varied model is saved as its stored tables plus its transform stack.

A reload must score as the model that was saved, on stored keys and on
keys the tables never saw, and every verb after ``vary`` reads the stack.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from phonospace import (
    Regime,
    TransformKind,
    TransformSpec,
    apply,
    factor_key,
    generic_model,
    load_model,
    parse_and_plan,
    read_corpus,
    save_model,
    score,
    train,
    write_corpus,
)
from phonospace.variation import AppliedTransform
from conftest import random_valid_string
from test_cli import run

REGIME = Regime(rate=2.0, loud=2.0)
STACKS = {kind.value: [TransformSpec(kind, 0.5)] for kind in TransformKind}
STACKS["syncope+straightening"] = [TransformSpec(TransformKind.SYNCOPE, 0.5),
                                   TransformSpec(TransformKind.STRAIGHTENING, 0.5)]


def saved(model) -> str:
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()


def varied_by(model, stack):
    for spec in stack:
        model = apply(model, REGIME, spec)
    return model


@pytest.fixture(scope="module")
def trained(alphabet):
    rng = np.random.default_rng(7)
    return train([random_valid_string(rng, alphabet, max_len=14) for _ in range(30)],
                 alphabet=alphabet, limits="full")


@pytest.fixture(scope="module")
def heldout(alphabet):
    rng = np.random.default_rng(8)
    return [random_valid_string(rng, alphabet, max_len=14) for _ in range(200)]


def test_heldout_strings_reach_unseen_keys(alphabet, trained, heldout):
    def unseen(phones):
        s, *_, plan = parse_and_plan(phones, alphabet)
        return any(factor_key(s, f)[0] not in trained.tables for f in plan.factors)

    assert sum(map(unseen, heldout)) >= 10


@pytest.mark.parametrize("name", list(STACKS))
def test_reload_scores_as_saved(alphabet, trained, heldout, name):
    varied = varied_by(trained, STACKS[name])
    reloaded = load_model(saved(varied), alphabet)
    assert reloaded.transforms == varied.transforms
    assert [score(reloaded, s) for s in heldout] == [score(varied, s) for s in heldout]


@pytest.mark.parametrize("name", list(STACKS))
def test_round_trip_byte_stable(alphabet, trained, name):
    text = saved(varied_by(trained, STACKS[name]))
    assert saved(load_model(text, alphabet)) == text


@pytest.mark.parametrize("name", list(STACKS))
def test_document_is_source_plus_stack(trained, name):
    varied = varied_by(trained, STACKS[name])
    doc = json.loads(saved(varied))
    assert doc["format"] == "phonospace-model-4"
    assert list(doc)[-2:] == ["transforms", "tables"]
    assert doc.pop("transforms") == [t.to_json() for t in varied.transforms]
    source = saved(trained)
    assert json.dumps(doc, separators=(",", ":"), ensure_ascii=True) + "\n" == source


def test_identity_transform_never_saved(trained):
    assert saved(apply(trained, REGIME, TransformSpec(TransformKind.LENITION, 0.0))) == saved(trained)


def test_transform_codec_round_trip():
    t = AppliedTransform(TransformSpec(TransformKind.EPENTHESIS, 1), Regime(rate=2, loud=0.1))
    assert t.to_json() == {"kind": "epenthesis", "lambda": "1.0", "rate": "2.0",
                           "loud": "0.1", "pitch": "1.0"}
    assert AppliedTransform.from_json(t.to_json()) == t


def test_varied_generic_model_scores_differently(alphabet, heldout):
    generic = generic_model(alphabet)
    varied = apply(generic, Regime(rate=2.0), TransformSpec(TransformKind.STRAIGHTENING, 0.5))
    reloaded = load_model(saved(varied), alphabet)
    want = [score(varied, s) for s in heldout[:20]]
    assert [score(reloaded, s) for s in heldout[:20]] == want
    assert want != [score(generic, s) for s in heldout[:20]]


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path, alphabet):
        rng = np.random.default_rng(3)
        corpus = tmp_path / "c.jsonl"
        write_corpus([random_valid_string(rng, alphabet, max_len=10) for _ in range(12)],
                     str(corpus))
        model = tmp_path / "m.json"
        save_model(generic_model(alphabet), str(model))
        return corpus, model

    def test_vary_changes_generic_scores(self, tmp_path, files):
        corpus, model = files
        varied = tmp_path / "v.json"
        assert run(["vary", "--model", str(model), "--transform", "straightening",
                    "--lambda", "0.5", "--rate", "2", "--out", str(varied)])[0] == 0
        code, base, _ = run(["score", str(corpus), "--model", str(model)])
        code2, out, _ = run(["score", str(corpus), "--model", str(varied)])
        assert code == code2 == 0
        assert len(out.splitlines()) == 13 and out != base

    def test_two_varies_keep_both_transforms(self, tmp_path, alphabet, files):
        corpus, model = files
        once, twice = tmp_path / "v1.json", tmp_path / "v2.json"
        assert run(["vary", "--model", str(model), "--transform", "syncope",
                    "--lambda", "0.5", "--rate", "2", "--out", str(once)])[0] == 0
        assert run(["vary", "--model", str(once), "--transform", "straightening",
                    "--lambda", "0.25", "--rate", "3", "--out", str(twice)])[0] == 0
        want = apply(apply(generic_model(alphabet), Regime(rate=2.0),
                           TransformSpec(TransformKind.SYNCOPE, 0.5)),
                     Regime(rate=3.0), TransformSpec(TransformKind.STRAIGHTENING, 0.25))
        assert load_model(str(twice), alphabet).transforms == want.transforms
        code, out, _ = run(["info", "--model", str(twice)])
        assert code == 0
        assert json.loads(out)["model"]["transforms"] == [t.to_json() for t in want.transforms]
        code, out, _ = run(["score", str(corpus), "--model", str(twice)])
        assert code == 0
        got = [line.rsplit(": ", 1)[1] for line in out.splitlines()[:-1]]
        assert got == [repr(score(want, rec.phones)) for rec in read_corpus(str(corpus))]

    def test_info_without_stack_unchanged(self, files):
        _, model = files
        code, out, _ = run(["info", "--model", str(model)])
        assert code == 0 and list(json.loads(out)["model"]) == ["keys", "epsilon", "alpha", "limits"]

    GOOD = {"kind": "syncope", "lambda": "0.5", "rate": "2.0", "loud": "1.0", "pitch": "1.0"}
    BAD = {
        "unknown kind": ("3", [dict(GOOD, kind="syncopy")], "'syncopy' is not a valid TransformKind"),
        "lambda out of range": ("3", [dict(GOOD, **{"lambda": "1.5"})], "lambda must lie in [0, 1]"),
        "lambda not a string": ("3", [dict(GOOD, **{"lambda": True})], "decimal strings"),
        "lambda not a number": ("3", [dict(GOOD, **{"lambda": "half"})], "could not convert"),
        "non-finite rate": ("3", [dict(GOOD, rate="inf")], "finite and strictly positive"),
        "nan loud": ("3", [dict(GOOD, loud="nan")], "finite and strictly positive"),
        "missing field": ("3", [{k: v for k, v in GOOD.items() if k != "pitch"}], "expected the fields"),
        "extra field": ("3", [dict(GOOD, beta="1.0")], "expected the fields"),
        "not an object": ("3", ["syncope"], "expected the fields"),
        "not a list": ("3", GOOD, "nonempty"),
        "empty stack": ("3", [], "nonempty"),
        "no stack": ("3", None, "nonempty"),
        "stack in format 2": ("2", [GOOD], "needs format"),
        # apply drops a lambda of 0, so such an entry would vanish on load
        "lambda zero": ("4", [dict(GOOD, **{"lambda": "0.0"})], "bad transform 1: a lambda of 0"),
        "lambda minus zero": ("4", [GOOD, dict(GOOD, **{"lambda": "-0.0"})], "bad transform 2: a lambda of 0"),
        "lambda zero in format 3": ("3", [GOOD, dict(GOOD, **{"lambda": "0"})], "bad transform 2: a lambda of 0"),
    }

    @pytest.mark.parametrize("case", list(BAD))
    def test_bad_transforms_exit_three(self, tmp_path, files, case):
        _, model = files
        version, stack, message = self.BAD[case]
        doc = json.loads(Path(model).read_text())
        doc["format"] = f"phonospace-model-{version}"
        if stack is not None:
            doc["transforms"] = stack
        doc["tables"] = doc.pop("tables")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(["info", "--model", str(bad)])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and message in err
