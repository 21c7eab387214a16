"""Format 4: stored keys as rows of cell positions, a trained model as its counts.

A trained model saves what it counted and alpha; a reload smooths the
counts through the same expression ``train`` uses, so its tables are the
same floats. A malformed row is a located format error (exit 3), and a
document that indexes other cells than the loading alphabet is an
alphabet mismatch.
"""

import copy
import dataclasses
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from phonospace import (
    CategoricalDist,
    CondKey,
    LanguageModel,
    ProsodicLimits,
    Regime,
    TransformKind,
    TransformSpec,
    StressClass,
    Unit,
    apply,
    load_alphabet,
    load_model,
    score,
    train,
    write_corpus,
)
from phonospace.model import AlphabetMismatchError, ModelError, ModelFormatError, model_to_json
from conftest import MINI_TABLE, random_valid_string
from test_cli import mini_path, run  # noqa: F401 (mini_path is a fixture)


def trained_on(alphabet, seed=11, n=30, alpha=0.01):
    rng = np.random.default_rng(seed)
    return train([random_valid_string(rng, alphabet, max_len=14, prosody_span=4) for _ in range(n)],
                 alpha=alpha, alphabet=alphabet)


class TestRoundTripAcrossAlpha:
    @pytest.mark.parametrize("alpha", [0, 0.01, 1])
    @pytest.mark.parametrize("which", ["alphabet", "mini_alphabet"])
    def test_tables_equal_float_for_float(self, request, which, alpha):
        alphabet = request.getfixturevalue(which)
        model = trained_on(alphabet, alpha=alpha)
        text = model_to_json(model)
        assert json.loads(text)["rows"] == "counts"
        loaded = load_model(text, alphabet)
        assert loaded.tables.keys() == model.tables.keys()
        for key, d in model.tables.items():
            assert loaded.tables[key] == d and loaded.tables[key].entries == d.entries, key
        assert loaded.counts == model.counts
        assert model_to_json(loaded) == text

    @pytest.mark.parametrize("alpha", ["0", "0.01", "1"])
    @pytest.mark.parametrize("which", ["default", "mini"])
    def test_vary_lambda_zero_keeps_the_file(self, request, tmp_path, mini_path, which, alpha):
        # as the CI step that compares model.json and same.json with cmp
        alphabet = request.getfixturevalue("mini_alphabet" if which == "mini" else "alphabet")
        flags = ["--alphabet", mini_path] if which == "mini" else []
        rng = np.random.default_rng(5)
        corpus, model, same = (str(tmp_path / n) for n in ("c.jsonl", "m.json", "same.json"))
        write_corpus([random_valid_string(rng, alphabet, max_len=12) for _ in range(20)], corpus)
        assert run([*flags, "train", corpus, "--out", model, "--alpha", alpha])[0] == 0
        code, _, err = run([*flags, "vary", "--model", model, "--transform", "syncope",
                            "--lambda", "0", "--out", same])
        assert code == 0, err
        assert Path(same).read_bytes() == Path(model).read_bytes()


class TestCanonicalText:
    """A saved model is ``json.dumps`` of its document, so loading and dumping the text changes nothing."""

    @staticmethod
    def model(alphabet, which):
        trained = trained_on(alphabet)
        if which == "trained":
            return trained
        if which == "varied":
            return apply(apply(trained, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 0.5)),
                         Regime(rate=2.0), TransformSpec(TransformKind.STRAIGHTENING, 0.5))
        if which == "full support":  # every row an exception list and a floor
            tables = {key: trained.generic_dist(key) for key in trained.tables}
        else:  # one row over a partial support, listed whole
            cells = list(alphabet)
            tables = {CondKey(Unit.RHYME, StressClass.STRESSED, (cells[0],)):
                      CategoricalDist([(None, 0.25), (cells[1], 0.75)])}
        return LanguageModel(alphabet, tables, 0.05, 0.0, ProsodicLimits.full())

    @pytest.mark.parametrize("which", ["trained", "varied", "full support", "partial support"])
    def test_text_is_json_dumps_of_its_document(self, mini_alphabet, which):
        text = model_to_json(self.model(mini_alphabet, which))
        assert text == json.dumps(json.loads(text), separators=(",", ":"))
        rows = json.loads(text)["tables"]
        assert {len(row) for row in rows} == {5 if which == "full support" else 4}


class TestCountsFollowTheTables:
    """Only a model whose tables came from its counts saves them; any other saves probability rows."""

    @pytest.fixture
    def corpus(self, mini_alphabet):
        rng = np.random.default_rng(1)
        return [random_valid_string(rng, mini_alphabet, max_len=12) for _ in range(20)]

    @pytest.mark.parametrize("change", ["tables", "alpha"])
    def test_replaced_copy_reloads_to_its_scores(self, mini_alphabet, corpus, change):
        trained = train(corpus, alphabet=mini_alphabet)
        edit = ({"tables": {key: trained.generic_dist(key) for key in trained.tables}}
                if change == "tables" else {"alpha": 1.0})
        copied = dataclasses.replace(trained, **edit)
        assert trained.counts and not copied.counts
        text = model_to_json(copied)
        assert json.loads(text)["rows"] == "probabilities"
        reloaded = load_model(text, mini_alphabet)
        assert [score(reloaded, s) for s in corpus] == [score(copied, s) for s in corpus]

    def test_apply_keeps_counts_and_a_replaced_stack_does_not(self, mini_alphabet, corpus):
        trained = train(corpus, alphabet=mini_alphabet)
        varied = apply(trained, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 0.5))
        assert varied.counts is trained.counts
        assert json.loads(model_to_json(varied))["rows"] == "counts"
        restacked = dataclasses.replace(trained, transforms=varied.transforms)
        doc = json.loads(model_to_json(restacked))
        assert doc["rows"] == "probabilities"
        assert doc["transforms"] == [t.to_json() for t in varied.transforms]
        reloaded = load_model(json.dumps(doc), mini_alphabet)
        assert [score(reloaded, s) for s in corpus] == [score(restacked, s) for s in corpus]


def set_listed(index, value):
    """An edit of a row that sets one entry of its position, count listing."""
    def edit(row):
        row[3][index] = value
    return edit


class TestMalformedCountRows:
    """Each malformed count row is a format error naming its row, never a crash."""

    CASES = {
        "position a string": (set_listed(0, "1"), "position '1' is not an integer in [0, 11)"),
        "position true": (set_listed(0, True), "position True is not an integer in [0, 11)"),
        "position negative": (set_listed(0, -1), "position -1 is not an integer in [0, 11)"),
        "position past the support": (set_listed(0, 11), "position 11 is not an integer"),
        "position a float": (set_listed(0, 1.0), "position 1.0 is not an integer"),
        "context position": (lambda row: row.__setitem__(2, [99]), "position 99 is not an integer"),
        "count zero": (set_listed(1, 0), "count 0 is not a positive integer"),
        "count negative": (set_listed(1, -2), "count -2 is not a positive integer"),
        "count a float": (set_listed(1, 1.0), "count 1.0 is not a positive integer"),
        "count true": (set_listed(1, True), "count True is not a positive integer"),
        "count a string": (set_listed(1, "1"), "count '1' is not a positive integer"),
        "position twice": (lambda row: row[3].extend(row[3][:2]), "listed twice"),
        "empty row": (lambda row: row[3].clear(), "a count row lists no target"),
        "odd listing": (lambda row: row[3].append(3), "position, value pairs"),
        "count too large": (set_listed(1, 10 ** 400), "counts too large for a float"),
        "floor on a count row": (lambda row: row.append("0.5"), "a row of counts is [unit, stress, context, values]"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_three(self, tmp_path, mini_alphabet, mini_path, case):
        edit, message = self.CASES[case]
        doc = json.loads(model_to_json(trained_on(mini_alphabet, n=5)))
        doc["alpha"] = "0.0"  # an empty row would divide by zero
        edit(doc["tables"][0])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "info", "--model", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("error: table row 1: ") and len(err.splitlines()) == 1
        assert message in err


class TestSupportDigest:
    def test_same_version_other_cells_rejected(self, mini_alphabet, tmp_path, mini_path):
        # the same version string over another cell: positions would name the wrong cells
        other = MINI_TABLE.replace("glottal\tvowel\tback\tcloseMid\to", "glottal\tvowel\tback\topen\to")
        assert other != MINI_TABLE
        text = model_to_json(trained_on(mini_alphabet, n=5))
        with pytest.raises(AlphabetMismatchError, match="other cells"):
            load_model(text, load_alphabet(other))
        other_path, model_path = tmp_path / "other.tsv", tmp_path / "m.json"
        other_path.write_text(other, encoding="utf-8")
        model_path.write_text(text)
        code, out, err = run(["--alphabet", str(other_path), "info", "--model", str(model_path)])
        assert (code, out) == (1, "") and "other cells" in err
        assert run(["--alphabet", mini_path, "info", "--model", str(model_path)])[0] == 0

    @pytest.mark.parametrize("digest", ["00000000", None, 7])
    def test_differing_digest_rejected(self, mini_alphabet, digest):
        doc = json.loads(model_to_json(trained_on(mini_alphabet, n=5)))
        doc["support_crc32"] = digest
        with pytest.raises(AlphabetMismatchError):
            load_model(json.dumps(doc), mini_alphabet)


class TestStructuralFuzz:
    """Seeded deletions, duplications and retypings of one or two JSON nodes.

    Every rejection is a ``ModelFormatError`` or ``ModelError``; every
    accepted document scores its probes without NaN or a positive
    log-probability, and re-saves and reloads byte for byte.
    """

    MUTATIONS = 300  # per document
    OTHER_VALUES = [None, True, 0, -1, 2.5, math.nan, 10 ** 400, "x", "0.5", [], {}, [0, 1]]

    @staticmethod
    def paths(obj, path=()):
        yield path
        items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
        for k, v in items:
            yield from TestStructuralFuzz.paths(v, path + (k,))

    def mutate(self, doc, rng):
        doc = copy.deepcopy(doc)
        for _ in range(rng.choice((1, 2))):
            paths = [p for p in self.paths(doc) if p]
            if not paths:
                break
            path = rng.choice(paths)
            parent = doc
            for k in path[:-1]:
                parent = parent[k]
            last, op = path[-1], rng.choice(("delete", "duplicate", "retype"))
            if op == "delete":
                del parent[last]
            elif op == "duplicate" and isinstance(parent, list):
                parent.insert(last, copy.deepcopy(parent[last]))
            elif op == "duplicate":  # a dict value becomes a copy of some other node
                source = doc
                for k in rng.choice(paths):
                    source = source[k]
                parent[last] = copy.deepcopy(source)
            else:
                kind = type(parent[last])
                parent[last] = copy.deepcopy(rng.choice(
                    [v for v in self.OTHER_VALUES if type(v) is not kind]))
        return doc

    @pytest.fixture(scope="class")
    def documents(self, mini_alphabet):
        model = trained_on(mini_alphabet, n=12)
        varied = apply(apply(model, Regime(rate=2.0), TransformSpec(TransformKind.SYNCOPE, 0.5)),
                       Regime(loud=2.0), TransformSpec(TransformKind.EPENTHESIS, 0.5))
        rng = np.random.default_rng(12)
        probes = [random_valid_string(rng, mini_alphabet, max_len=10, prosody_span=4)
                  for _ in range(5)]
        return [json.loads(model_to_json(m)) for m in (model, varied)], probes

    def test_rejections_are_typed_and_acceptances_sound(self, mini_alphabet, documents):
        docs, probes = documents
        rng = random.Random(1)
        start, accepted, rejected = time.perf_counter(), 0, 0
        for doc in docs:
            for _ in range(self.MUTATIONS):
                text = json.dumps(self.mutate(doc, rng))
                try:
                    model = load_model(text, mini_alphabet)
                except (ModelFormatError, ModelError):
                    rejected += 1
                    continue
                accepted += 1
                for s in probes:
                    lp = score(model, s)
                    assert not math.isnan(lp) and lp <= 0.0, text
                saved = model_to_json(model)
                assert model_to_json(load_model(saved, mini_alphabet)) == saved
        assert accepted and rejected
        assert time.perf_counter() - start < 2.0
