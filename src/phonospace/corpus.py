"""JSONL corpus format: one phone per line, blank line between strings.

A record carries the marker attributes (m, fb, oc, pl), the six
prosodic integers and an optional onset time t0. Lines starting with
``#`` are comments. Null-phone records ({"null": true}) belong to model
files only and are rejected in transcriptions.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import IO, ContextManager, Iterable, Iterator, List, Optional, Sequence, Union

from .alphabet import Phone, ProsodicVector, UnknownSymbolError, marker_from_record, marker_to_record


class CorpusFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class CorpusString:
    line: int  # 1-based line of the record's first phone
    phones: List[Phone]


# the prosodic keys of a record, in field order
_PROSODY_KEYS = tuple(f.name for f in fields(ProsodicVector))


def phone_to_record(phone: Phone) -> dict:
    if phone.is_null:
        return {"null": True}
    pv = phone.prosody
    rec = marker_to_record(phone.marker)
    rec.update(vars(pv))  # the six fields, in field order
    if phone.t0 is not None:
        rec["t0"] = phone.t0
    return rec


def phone_from_record(rec: dict, line: Optional[int] = None) -> Phone:
    """The phone of one record; ``ProsodicVector`` and ``Phone`` own the value rules."""
    if not isinstance(rec, dict):
        raise CorpusFormatError("phone record must be a JSON object", line)
    if rec.get("null"):
        raise CorpusFormatError("null phones do not occur in transcriptions", line)
    try:
        marker = marker_from_record(rec)
        values = {name: rec[name] for name in _PROSODY_KEYS}
    except UnknownSymbolError as exc:
        raise CorpusFormatError(exc.args[0], line) from None
    except KeyError as exc:
        raise CorpusFormatError(f"phone record missing field {exc}", line) from None
    t0 = rec.get("t0")
    try:
        phone = Phone(marker, ProsodicVector(**values), t0)
    except ValueError as exc:
        raise CorpusFormatError(str(exc), line) from None
    # an integral onset reads as a float, so a rewritten corpus keeps 2.0
    return phone if t0 is None else replace(phone, t0=float(t0))


def open_text(target: Union[str, IO], mode: str) -> ContextManager[IO]:
    """A passed file object as it is (left open), or the file at a path opened as UTF-8.

    ``mode`` is ``"r"`` or ``"w"``; an object with ``read`` (or ``write``) is the file.
    """
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(target, mode, encoding="utf-8")


def read_corpus(source: Union[str, IO]) -> Iterator[CorpusString]:
    """Stream the phone strings of a corpus file or file object."""
    with open_text(source, "r") as fh:
        phones: List[Phone] = []
        start_line = 0
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                if phones:
                    yield CorpusString(start_line, phones)
                    phones = []
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"malformed JSON ({exc.msg})", lineno) from None
            if not phones:
                start_line = lineno
            phones.append(phone_from_record(rec, lineno))
        if phones:
            yield CorpusString(start_line, phones)


def write_corpus(strings: Iterable[Sequence[Phone]], destination: Union[str, IO],
                 header_lines: Sequence[str] = ()) -> None:
    """Write strings as JSONL with blank-line separators; deterministic bytes."""
    with open_text(destination, "w") as fh:
        for h in header_lines:
            fh.write(f"# {h}\n")
        first = True
        for s in strings:
            if not first:
                fh.write("\n")
            first = False
            for phone in s:
                fh.write(json.dumps(phone_to_record(phone), separators=(",", ":")) + "\n")
