import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from phonospace import Phone, ProsodicVector, write_corpus
from phonospace.cli import main
from conftest import MINI_TABLE, random_valid_string


@pytest.fixture()
def mini_path(tmp_path):
    p = tmp_path / "mini.tsv"
    p.write_text(MINI_TABLE, encoding="utf-8")
    return str(p)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def make_corpus(tmp_path, mini_alphabet, rng, n=20, name="corpus.jsonl"):
    strings = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
               for _ in range(n)]
    path = tmp_path / name
    write_corpus(strings, str(path))
    return str(path)


class TestValidate:
    def test_all_valid(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        code, out, _ = run(["--alphabet", mini_path, "validate", corpus])
        assert code == 0
        assert "3 valid, 0 invalid" in out

    def test_invalid_string_exits_one(self, tmp_path, mk, mini_path):
        bad = [Phone(mk("vowel:front:close:glottal"), ProsodicVector())] * 3
        path = tmp_path / "bad.jsonl"
        write_corpus([bad], str(path))
        code, out, _ = run(["--alphabet", mini_path, "validate", str(path)])
        assert code == 1
        assert "missingBoundaryClosure" in out
        code, _, _ = run(["--alphabet", mini_path, "validate", "--skip-invalid", str(path)])
        assert code == 0

    def test_missing_file_exits_two(self, mini_path):
        code, _, err = run(["--alphabet", mini_path, "validate", "/nonexistent/x.jsonl"])
        assert code == 2

    def test_malformed_json_exits_three(self, tmp_path, mini_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n")
        code, _, err = run(["--alphabet", mini_path, "validate", str(path)])
        assert code == 3


class TestSyllabify:
    def test_json_documents_parse(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=4)
        code, out, _ = run(["--alphabet", mini_path, "syllabify", corpus, "--json"])
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 4
        for doc in docs:
            assert {"string", "line", "symbols", "syllables", "factors"} <= set(doc)
            for syl in doc["syllables"]:
                assert syl["class"] in {"stressed", "unstressed",
                                        "middling-LtoR", "middling-RtoL"}

    def test_human_output(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=1)
        code, out, _ = run(["--alphabet", mini_path, "syllabify", corpus])
        assert code == 0 and "syllable" in out


class TestPipeline:
    def test_train_score_sample_vary(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=40)
        model_path = str(tmp_path / "model.json")
        code, _, err = run(["--alphabet", mini_path, "train", corpus,
                            "--out", model_path, "--alpha", "0.01"])
        assert code == 0 and Path(model_path).exists()

        code, out, _ = run(["--alphabet", mini_path, "score", corpus, "--model", model_path])
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("total: ")

        sample_path = str(tmp_path / "sampled.jsonl")
        code, _, _ = run(["--alphabet", mini_path, "sample", "--model", model_path,
                          "-n", "5", "--seed", "7", "--max-syllables", "2",
                          "--out", sample_path])
        assert code == 0

        code2, _, _ = run(["--alphabet", mini_path, "sample", "--model", model_path,
                           "-n", "5", "--seed", "7", "--max-syllables", "2",
                           "--out", sample_path + ".again"])
        assert code2 == 0
        assert Path(sample_path).read_bytes() == Path(sample_path + ".again").read_bytes()

        varied_path = str(tmp_path / "varied.json")
        code, _, _ = run(["--alphabet", mini_path, "vary", "--model", model_path,
                          "--transform", "syncope", "--lambda", "0.5", "--rate", "2.0",
                          "--out", varied_path])
        assert code == 0
        assert Path(varied_path).read_text() != Path(model_path).read_text()

    def test_vary_lambda_zero_preserves_bytes(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=20)
        model_path = str(tmp_path / "model.json")
        run(["--alphabet", mini_path, "train", corpus, "--out", model_path])
        out_path = str(tmp_path / "identity.json")
        code, _, _ = run(["--alphabet", mini_path, "vary", "--model", model_path,
                          "--transform", "lenition", "--lambda", "0.0", "--rate", "3.0",
                          "--out", out_path])
        assert code == 0
        assert Path(out_path).read_bytes() == Path(model_path).read_bytes()

    def test_trained_beats_generic_on_training_corpus(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=50)
        model_path = str(tmp_path / "model.json")
        run(["--alphabet", mini_path, "train", corpus, "--out", model_path,
             "--alpha", "1e-6", "--limits", "full"])
        code, out_t, _ = run(["--alphabet", mini_path, "score", corpus, "--model", model_path])
        assert code == 0
        total_trained = float(out_t.strip().splitlines()[-1].split(": ")[1])

        generic_path = str(tmp_path / "generic.json")
        code, _, _ = run(["--alphabet", mini_path, "sample", "--model", model_path, "-n", "1",
                          "--seed", "1", "--out", str(tmp_path / "ignore.jsonl")])
        # build a generic model file by training-free route: score via sample's epsilon default
        from phonospace import generic_model, save_model, load_alphabet
        gm = generic_model(load_alphabet(MINI_TABLE), epsilon=0.05)
        save_model(gm, generic_path)
        code, out_g, _ = run(["--alphabet", mini_path, "score", corpus, "--model", generic_path])
        assert code == 0
        total_generic = float(out_g.strip().splitlines()[-1].split(": ")[1])
        assert total_trained >= total_generic

    def test_version_mismatch_exits_one(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=5)
        model_path = str(tmp_path / "model.json")
        run(["--alphabet", mini_path, "train", corpus, "--out", model_path])
        code, _, err = run(["score", corpus, "--model", model_path])  # packaged alphabet
        assert code == 1 and "alphabet" in err


class TestInfo:
    def test_reports_versions(self, tmp_path, mini_alphabet, rng, mini_path):
        code, out, _ = run(["--alphabet", mini_path, "info"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alphabet_version"] == "mini-1.0" and doc["cells"] == 10

    def test_model_metadata(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=10)
        model_path = str(tmp_path / "model.json")
        run(["--alphabet", mini_path, "train", corpus, "--out", model_path])
        code, out, _ = run(["--alphabet", mini_path, "info", "--model", model_path])
        doc = json.loads(out)
        assert code == 0 and doc["model"]["keys"] > 0


class TestEnvVar:
    def test_env_default(self, tmp_path, mini_alphabet, rng, mini_path, monkeypatch):
        monkeypatch.setenv("PHONOSPACE_ALPHABET", mini_path)
        code, out, _ = run(["info"])
        assert code == 0 and json.loads(out)["alphabet_version"] == "mini-1.0"


def mixed_corpus(tmp_path, mini_alphabet, rng, mk):
    good = [random_valid_string(rng, mini_alphabet, max_len=7, prosody_span=2) for _ in range(2)]
    bad = [Phone(mk("vowel:front:close:glottal"), ProsodicVector())] * 3
    path = tmp_path / "mixed.jsonl"
    write_corpus([good[0], bad, good[1]], str(path))
    return str(path)


class TestSkipInvalid:
    def test_score(self, tmp_path, mini_alphabet, rng, mk, mini_path):
        from phonospace import generic_model, save_model
        corpus = mixed_corpus(tmp_path, mini_alphabet, rng, mk)
        model_path = str(tmp_path / "generic.json")
        save_model(generic_model(mini_alphabet), model_path)
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", model_path])
        assert code == 1 and "missingBoundaryClosure" in err and out.startswith("string 1 ")
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", model_path,
                              "--skip-invalid"])
        assert code == 0
        lines = out.splitlines()
        assert [line.split(" (")[0] for line in lines[:-1]] == ["string 1", "string 3"]
        assert lines[-1].startswith("total: ")
        assert err.startswith("error: string 2 (line ") and "missingBoundaryClosure" in err
        assert len(err.splitlines()) == 1

    def test_syllabify(self, tmp_path, mini_alphabet, rng, mk, mini_path):
        corpus = mixed_corpus(tmp_path, mini_alphabet, rng, mk)
        code, _, err = run(["--alphabet", mini_path, "syllabify", corpus, "--json"])
        assert code == 1 and "missingBoundaryClosure" in err
        code, out, err = run(["--alphabet", mini_path, "syllabify", corpus, "--json",
                              "--skip-invalid"])
        assert code == 0
        assert [json.loads(line)["string"] for line in out.splitlines()] == [1, 3]
        assert err.startswith("error: string 2 (line ") and len(err.splitlines()) == 1


class TestTrainSkipInvalid:
    def test_train(self, tmp_path, mini_alphabet, rng, mk, mini_path):
        from phonospace import read_corpus
        corpus = mixed_corpus(tmp_path, mini_alphabet, rng, mk)
        first, bad, third = read_corpus(corpus)
        valid = tmp_path / "valid.jsonl"
        write_corpus([first.phones, third.phones], str(valid))
        model, expected = tmp_path / "m.json", tmp_path / "expected.json"
        code, _, err = run(["--alphabet", mini_path, "train", corpus, "--out", str(model)])
        assert code == 1 and f"line {bad.line}" in err and not model.exists()
        code, _, err = run(["--alphabet", mini_path, "train", corpus, "--out", str(model),
                            "--skip-invalid"])
        assert code == 0, err
        assert run(["--alphabet", mini_path, "train", str(valid), "--out", str(expected)])[0] == 0
        assert model.read_bytes() == expected.read_bytes()


class TestSampleBytes:
    # digests of the output of the dense-distribution implementation
    # (model format 1), which the floor-plus-exceptions form must reproduce
    GENERIC = "7069591d2fa7ec002a342d5803e852e6e32ec7bc1f4746e65888c195ad3abece"
    TRAINED = "49020204d00d909b4f8a658aa657ec1c9fb7d5bbe1b1cca6939aef4054606fcc"
    # a model trained on the GENERIC corpus: its observed limits give spans other than 129
    TRAINED_ON_SAMPLE = "11cc1373e027bbbc6d68391c220a8fd0fca9a172d20ce5605e60c8a7169f71a6"

    @staticmethod
    def digest(argv):
        import hashlib
        code, out, err = run(argv)
        assert code == 0, err
        return hashlib.sha256(out.encode()).hexdigest()

    def test_generic_model(self):
        assert self.digest(["sample", "-n", "50", "--seed", "7"]) == self.GENERIC

    def test_trained_model(self, tmp_path, alphabet):
        import numpy as np
        rng = np.random.default_rng(7)
        strings = [random_valid_string(rng, alphabet, max_len=14) for _ in range(30)]
        corpus, model_path = str(tmp_path / "c.jsonl"), str(tmp_path / "m.json")
        write_corpus(strings, corpus)
        code, _, _ = run(["train", corpus, "--out", model_path])
        assert code == 0
        argv = ["sample", "-n", "50", "--seed", "7", "--model", model_path]
        assert self.digest(argv) == self.TRAINED

    def test_model_trained_on_sample(self, tmp_path):
        # the steps of the no-numpy CI job
        corpus, model_path = tmp_path / "corpus.jsonl", str(tmp_path / "model.json")
        code, out, err = run(["sample", "-n", "50", "--seed", "7"])
        assert code == 0, err
        corpus.write_text(out, encoding="utf-8")
        assert run(["train", str(corpus), "--out", model_path])[0] == 0
        argv = ["sample", "-n", "50", "--seed", "7", "--max-syllables", "5", "--model", model_path]
        assert self.digest(argv) == self.TRAINED_ON_SAMPLE


class TestScoreBytes:
    # score's stdout for the TestSampleBytes.GENERIC corpus under a saved generic
    # model of the default alphabet; the CI no-numpy job checks both digests.
    # At epsilon 0 a string that takes a joining target scores -inf.
    SCORED = "c016f77e9723606fa2457866f61f2294f12548163b17c0d52f0bf663b3541c74"
    SCORED_AT_EPSILON_0 = "1992b4d7b1e2023b1d296a75677f46e87ad17eba1ee28896281ca8efcd5e867f"

    @pytest.mark.parametrize("epsilon,expected", [(0.05, SCORED), (0.0, SCORED_AT_EPSILON_0)])
    def test_generic_model(self, tmp_path, alphabet, epsilon, expected):
        import hashlib
        from phonospace import generic_model, save_model
        corpus, model_path = tmp_path / "corpus.jsonl", str(tmp_path / "generic.json")
        code, out, err = run(["sample", "-n", "50", "--seed", "7"])
        assert code == 0, err
        corpus.write_text(out, encoding="utf-8")
        save_model(generic_model(alphabet, epsilon=epsilon), model_path)
        code, out, err = run(["score", str(corpus), "--model", model_path])
        assert code == 0, err
        assert ("-inf" in out) == (epsilon == 0.0)
        assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestSyllabifyBytes:
    # syllabify's stdout for the TestSampleBytes.GENERIC corpus: the parser's syllables,
    # their stress scores and classes, and the plans; the CI no-numpy job checks its
    # syllables.json against SYLLABIFIED_JSON
    SYLLABIFIED_JSON = "4bb0acc9a9443a04b0de219299518e92129b575080e400fa843367d7cea935ad"
    SYLLABIFIED_TEXT = "bd7386288bc081a75540dfcb84423d87202872d15b7adbcfd4d9f7258397a0f6"

    @pytest.mark.parametrize("flags,expected", [(["--json"], SYLLABIFIED_JSON), ([], SYLLABIFIED_TEXT)],
                             ids=["json", "text"])
    def test_generic_corpus(self, tmp_path, flags, expected):
        import hashlib
        corpus = tmp_path / "corpus.jsonl"
        code, out, err = run(["sample", "-n", "50", "--seed", "7"])
        assert code == 0, err
        corpus.write_text(out, encoding="utf-8")
        code, out, err = run(["syllabify", *flags, str(corpus)])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestNonFiniteArguments:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_train_alpha(self, tmp_path, mini_alphabet, rng, mini_path, bad):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        out = tmp_path / "m.json"
        code, _, err = run(["--alphabet", mini_path, "train", corpus, "--out", str(out),
                            "--alpha", bad])
        assert code == 1 and err.startswith("error: ") and "alpha" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_vary_rate(self, tmp_path, mini_alphabet, mini_path, bad):
        from phonospace import generic_model, save_model
        model_path, out = str(tmp_path / "g.json"), tmp_path / "v.json"
        save_model(generic_model(mini_alphabet), model_path)
        code, _, err = run(["--alphabet", mini_path, "vary", "--model", model_path,
                            "--transform", "straightening", "--lambda", "1",
                            "--rate", bad, "--out", str(out)])
        assert code == 1 and err.startswith("error: ") and "finite" in err
        assert not out.exists()

    def test_score_stress_weights(self, tmp_path, mini_alphabet, rng, mini_path):
        from phonospace import generic_model, save_model
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        model_path = str(tmp_path / "g.json")
        save_model(generic_model(mini_alphabet), model_path)
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", model_path,
                              "--stress-weights", "nan,1,1,1"])
        assert code == 1 and out == "" and "finite" in err

    def test_score_under_nan_model_exits_three(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=5)
        model_path = tmp_path / "m.json"
        assert run(["--alphabet", mini_path, "train", corpus, "--out", str(model_path)])[0] == 0
        doc = json.loads(model_path.read_text())
        doc["tables"][0]["floor"] = "nan"
        model_path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", str(model_path)])
        assert code == 3 and out == "" and "non-normalized" in err


class TestFractionalLimits:
    def test_score_exits_three(self, tmp_path, mini_alphabet, rng, mini_path):
        from phonospace import generic_model, save_model
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        model_path = tmp_path / "g.json"
        save_model(generic_model(mini_alphabet), str(model_path))
        doc = json.loads(model_path.read_text())
        doc["limits"]["R"] = [-64.5, 64]
        model_path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", str(model_path)])
        assert code == 3 and out == "" and "non-integer" in err


class TestLimitsBeyondTheVectorRange:
    # "R":[-100,100] used to score with log(1/201) per phone, and to fail only when sampled
    @pytest.mark.parametrize("verb", ["score", "sample", "info"])
    def test_exits_three(self, tmp_path, mini_alphabet, rng, mini_path, verb):
        from phonospace import generic_model, save_model
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        model_path = tmp_path / "g.json"
        save_model(generic_model(mini_alphabet), str(model_path))
        doc = json.loads(model_path.read_text())
        doc["limits"]["R"] = [-100, 100]
        model_path.write_text(json.dumps(doc))
        args = [corpus] if verb == "score" else []
        code, out, err = run(["--alphabet", mini_path, verb, *args, "--model", str(model_path)])
        assert code == 3 and out == "" and "outside [-64, 64]" in err


class TestSampleCounts:
    def test_negative_n_rejected(self):
        code, out, err = run(["sample", "-n", "-3"])
        assert code == 1 and out == "" and err.startswith("error: ") and "-n" in err

    @pytest.mark.parametrize("n", ["0", "2"])
    def test_max_syllables_rejected_up_front(self, n):
        code, out, err = run(["sample", "-n", n, "--max-syllables", "0"])
        assert code == 1 and out == "" and "--max-syllables" in err

    @pytest.mark.parametrize("weights", ["1,2", "nan,1,1,1"])
    def test_stress_weights_rejected_before_drawing(self, weights):
        code, out, err = run(["sample", "-n", "0", "--stress-weights", weights])
        assert code == 1 and out == "" and err.startswith("error: ") and len(err.splitlines()) == 1

    def test_zero_strings_writes_header_only(self):
        code, out, _ = run(["sample", "-n", "0"])
        assert code == 0
        assert out.splitlines()[0] == "# phonospace corpus"
        assert all(line.startswith("#") for line in out.splitlines())


class TestLazyNumpy:
    SCRIPT = """
import json, sys
from phonospace.cli import main
verbs = json.loads(sys.argv[1])
loaded = []
for argv in verbs:
    code = main(argv)
    assert code == 0, (argv, code)
    loaded.append('numpy' in sys.modules)
print(json.dumps(loaded))
"""

    def test_no_verb_imports_numpy(self, tmp_path, mini_alphabet, rng, mini_path):
        import subprocess
        import sys
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=5)
        model, varied = str(tmp_path / "m.json"), str(tmp_path / "v.json")
        a = ["--alphabet", mini_path]
        verbs = [a + ["info"], a + ["train", corpus, "--out", model],
                 a + ["score", corpus, "--model", model],
                 a + ["vary", "--model", model, "--transform", "straightening",
                      "--lambda", "1", "--rate", "2", "--out", varied],
                 a + ["info", "--model", varied],
                 a + ["sample", "-n", "2", "--model", model, "--out", str(tmp_path / "s.jsonl")]]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(verbs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 6


class TestQuantizationChecks:
    # each used to score with exit 0, or (a zero unit count) to crash with a traceback
    @pytest.mark.parametrize("name,bad", [
        ("units_per_octave_d", 12.7), ("max_abs_units", "64"), ("units_per_octave_d", 0),
        ("max_abs_units", -3), ("reference_pitch_hz", "inf")])
    def test_score_exits_three(self, tmp_path, mini_alphabet, rng, mini_path, name, bad):
        from phonospace import generic_model, save_model
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        model_path = tmp_path / "g.json"
        save_model(generic_model(mini_alphabet), str(model_path))
        doc = json.loads(model_path.read_text())
        doc["quantization"][name] = bad
        model_path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", str(model_path)])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and name in err and len(err.splitlines()) == 1


class TestModelFileSymbols:
    def test_unknown_attribute_value_exits_three(self, tmp_path, mini_alphabet, rng, mini_path):
        corpus = make_corpus(tmp_path, mini_alphabet, rng, n=3)
        model_path = tmp_path / "m.json"
        code, _, _ = run(["--alphabet", mini_path, "train", corpus, "--out", str(model_path)])
        assert code == 0
        doc = json.loads(model_path.read_text())
        ctx = next(c for t in doc["tables"] for c in t["key"]["context"] if not c.get("null"))
        ctx["m"] = "clossure"
        model_path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "score", corpus, "--model", str(model_path)])
        assert code == 3 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "clossure" in err and "missing field" not in err


class TestVaryBytes:
    # the CI no-numpy job checks the varied.json it writes against this digest;
    # the file holds the trained model's tables and the straightening as its stack
    VARIED = "36756f8685b0c880f884a703f7d8c3c28e36c8fcacd940bd69f0f6cdb971d07f"

    def test_straightened_sample_model(self, tmp_path):
        import hashlib
        corpus, model, varied = (str(tmp_path / n) for n in ("c.jsonl", "m.json", "v.json"))
        code, out, err = run(["sample", "-n", "50", "--seed", "7"])
        assert code == 0, err
        Path(corpus).write_text(out, encoding="utf-8")
        assert run(["train", corpus, "--out", model])[0] == 0
        code, _, err = run(["vary", "--model", model, "--transform", "straightening",
                            "--lambda", "0.5", "--rate", "2", "--out", varied])
        assert code == 0, err
        assert hashlib.sha256(Path(varied).read_bytes()).hexdigest() == self.VARIED


class TestVariedScoreBytes:
    # score's stdout for the TestSampleBytes.GENERIC corpus under the model trained
    # on it, varied three ways; the CI no-numpy job checks its varied_scores.txt
    # against SCORED_STRAIGHTENED
    SCORED_STRAIGHTENED = "ba527ba9a0b9e4a80e9dd7e3f1507682ee8839e1b12619f0fab543e28b60652e"
    SCORED_SYNCOPATED = "e0d6a92b33a6ee4fe3a27cc0614787fc87b610f90b3c49482894939448f55b4e"
    SCORED_EPENTHESIZED = "733fdb555ec50d2b7211ff42988891cfe17d6c5eb58e4d56a7e11af0a5ad88d7"

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        corpus, model = (tmp_path_factory.mktemp("varied") / n for n in ("c.jsonl", "m.json"))
        code, out, err = run(["sample", "-n", "50", "--seed", "7"])
        assert code == 0, err
        corpus.write_text(out, encoding="utf-8")
        assert run(["train", str(corpus), "--out", str(model)])[0] == 0
        return str(corpus), str(model)

    @pytest.mark.parametrize("transform,expected", [
        (["straightening", "--lambda", "0.5", "--rate", "2"], SCORED_STRAIGHTENED),
        (["syncope", "--lambda", "0.5", "--rate", "2"], SCORED_SYNCOPATED),
        (["epenthesis", "--lambda", "0.5", "--loud", "3"], SCORED_EPENTHESIZED),
    ], ids=["straightening", "syncope", "epenthesis"])
    def test_score(self, tmp_path, trained, transform, expected):
        import hashlib
        corpus, model = trained
        varied = str(tmp_path / "v.json")
        code, _, err = run(["vary", "--model", model, "--transform", *transform, "--out", varied])
        assert code == 0, err
        code, out, err = run(["score", corpus, "--model", varied])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == expected


class TestModelRecordErrors:
    """Each malformed target record keeps its message and exit code, wherever it occurs.

    The messages are those of the loader that decoded every record on its own.
    """

    CLOSURE = {"m": "closure", "fb": "central", "oc": "close", "pl": "palatAlveoLabial"}
    CASES = {
        "not a dict": (["closure"], "bad target entry: ['closure']"),
        "missing field": ({k: v for k, v in CLOSURE.items() if k != "pl"},
                          "target entry missing field 'pl'"),
        "unknown value": (dict(CLOSURE, m="clossure"),
                          "unknown attribute name 'clossure' in "
                          "'clossure:central:close:palatAlveoLabial'"),
        "not in alphabet": ({"m": "vowel", "fb": "front", "oc": "open", "pl": "glottal"},
                            "marker Marker(vowel:front:open:glottal) not in alphabet 'mini-1.0'"),
        "integer value": (dict(CLOSURE, m=3),
                          "unknown attribute name '3' in '3:central:close:palatAlveoLabial'"),
        "list value": (dict(CLOSURE, m=["closure"]),
                       "unknown attribute name \"['closure']\" in "
                       "\"['closure']:central:close:palatAlveoLabial\""),
    }

    @pytest.mark.parametrize("where", ["context", "dist"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_message_and_exit_code(self, tmp_path, mini_alphabet, mk, mini_path, where, case):
        from phonospace import save_model, train
        closure, vowel = mk("closure:central:close:palatAlveoLabial"), mk("vowel:front:close:glottal")
        string = [Phone(m, ProsodicVector()) for m in (closure, vowel, closure)]
        buf = io.StringIO()
        save_model(train([string], alphabet=mini_alphabet), buf)
        doc = json.loads(buf.getvalue())
        record, message = self.CASES[case]
        entry = doc["tables"][-1]  # its records repeat ones decoded before it
        if where == "context":
            entry["key"]["context"][0] = record
        else:
            entry["dist"].append([record, "0.0"])
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        code, out, err = run(["--alphabet", mini_path, "info", "--model", str(model_path)])
        assert (code, out, err) == (3, "", f"error: {message}\n")
