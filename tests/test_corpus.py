import io
import json

import pytest

from phonospace import Phone, ProsodicVector, phone_from_record, phone_to_record
from phonospace.corpus import CorpusFormatError, read_corpus, write_corpus
from conftest import random_valid_string


def sample_phone(mk, t0=None):
    return Phone(mk("vowel:front:close:glottal"), ProsodicVector(T=3, V=1), t0)


class TestRecords:
    def test_round_trip(self, mk):
        p = sample_phone(mk, t0=1.25)
        assert phone_from_record(phone_to_record(p)) == p

    def test_t0_optional(self, mk):
        rec = phone_to_record(sample_phone(mk))
        assert "t0" not in rec
        assert phone_from_record(rec).t0 is None

    def test_null_rejected_in_transcriptions(self):
        with pytest.raises(CorpusFormatError, match="null"):
            phone_from_record({"null": True})

    def test_missing_field(self):
        with pytest.raises(CorpusFormatError, match="missing field"):
            phone_from_record({"m": "vowel", "fb": "front"})

    def test_unknown_attribute(self):
        rec = {"m": "tap", "fb": "front", "oc": "close", "pl": "glottal",
               "R": 0, "N": 0, "V": 0, "T": 0, "D": 0, "L": 0}
        with pytest.raises(CorpusFormatError):
            phone_from_record(rec)


class TestStream:
    def test_blank_line_separates_strings(self, mk):
        p = sample_phone(mk)
        buf = io.StringIO()
        write_corpus([[p, p, p], [p]], buf, header_lines=["hello"])
        text = buf.getvalue()
        assert text.startswith("# hello\n")
        strings = list(read_corpus(io.StringIO(text)))
        assert [len(s.phones) for s in strings] == [3, 1]
        assert strings[0].phones[0] == p

    def test_comments_and_extra_blanks_ignored(self, mk):
        rec = __import__("json").dumps(phone_to_record(sample_phone(mk)))
        text = f"# header\n\n\n{rec}\n# middle comment\n{rec}\n\n\n\n{rec}\n"
        strings = list(read_corpus(io.StringIO(text)))
        assert [len(s.phones) for s in strings] == [2, 1]

    def test_line_numbers_reported(self, mk):
        rec = __import__("json").dumps(phone_to_record(sample_phone(mk)))
        text = f"# x\n{rec}\n\n{rec}\n"
        strings = list(read_corpus(io.StringIO(text)))
        assert [s.line for s in strings] == [2, 4]

    def test_malformed_json_names_line(self):
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(read_corpus(io.StringIO("# c\n{oops\n")))

    def test_write_is_deterministic(self, mk):
        p = sample_phone(mk, t0=0.5)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_corpus([[p, p]], buf, header_lines=["seed: 1"])
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]



class TestOpenText:
    # the corpus and model readers and writers take a path or an open text file by one
    # rule: both give the same bytes or the same model, and a passed file stays open
    @pytest.mark.parametrize("verb", ["read_corpus", "write_corpus", "save_model", "load_model"])
    def test_path_or_open_file(self, tmp_path, mini_alphabet, rng, verb):
        from phonospace import load_model, save_model, train
        from phonospace.model import model_to_json
        strings = [random_valid_string(rng, mini_alphabet, max_len=9, prosody_span=2)
                   for _ in range(5)]
        model = train(strings, alphabet=mini_alphabet)
        corpus, saved = tmp_path / "corpus.jsonl", tmp_path / "model.json"
        write_corpus(strings, str(corpus))
        save_model(model, str(saved))
        # per verb: the file it reads or writes, the mode it opens it in, and the call
        path, mode, call = {
            "read_corpus": (corpus, "r", lambda target: list(read_corpus(target))),
            "write_corpus": (tmp_path / "out.jsonl", "w", lambda target: write_corpus(strings, target)),
            "save_model": (tmp_path / "out.json", "w", lambda target: save_model(model, target)),
            "load_model": (saved, "r", lambda target: model_to_json(load_model(target, mini_alphabet))),
        }[verb]
        by_path = call(str(path))
        if mode == "w":  # a writer's result is the file's bytes
            by_path = path.read_bytes()
        with open(path, mode, encoding="utf-8") as fh:
            by_file = call(fh)
            assert not fh.closed, f"{verb} closed the file it was passed"
        if mode == "w":
            by_file = path.read_bytes()
        assert by_path and by_file == by_path

GOOD = {"m": "vowel", "fb": "front", "oc": "close", "pl": "glottal",
        "R": 0, "N": 0, "V": 1, "T": 3, "D": 0, "L": 0}
BAD_FIELDS = [("R", -6.9), ("R", 3.0), ("T", "3"), ("N", True), ("D", None),
              ("t0", "abc"), ("t0", True), ("t0", float("nan")), ("t0", float("inf")),
              ("m", "tap")]


class TestStrictRecords:
    """Values a record may not carry: each is a format error at its line."""

    @staticmethod
    def corpus_text(field, value):
        bad = {**GOOD, field: value}
        return "# c\n" + json.dumps(GOOD) + "\n" + json.dumps(bad) + "\n"

    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_read_raises_located_error(self, field, value):
        with pytest.raises(CorpusFormatError, match="^line 3: ") as info:
            list(read_corpus(io.StringIO(self.corpus_text(field, value))))
        assert "missing field" not in str(info.value)
        assert (field if field != "m" else "tap") in str(info.value)

    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_cli_exits_three(self, tmp_path, field, value):
        from phonospace.cli import main
        path = tmp_path / "c.jsonl"
        path.write_text(self.corpus_text(field, value))
        assert main(["validate", str(path)]) == 3

    def test_integral_values_still_read(self):
        phone = phone_from_record({**GOOD, "R": -6, "t0": 2})
        assert phone.prosody.R == -6 and phone.t0 == 2.0
