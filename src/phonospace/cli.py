"""Command-line surface: validate, syllabify, score, train, sample, vary, info.

Machine output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain error, 2 I/O error, 3 format error. The default
alphabet is the packaged table; PHONOSPACE_ALPHABET or --alphabet
overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import corpus as corpus_io
from .alphabet import Alphabet, default_alphabet, load_alphabet_path
from .corpus import CorpusFormatError
from .model import (
    AlphabetMismatchError,
    ModelError,
    ModelFormatError,
    generic_model,
    load_model,
    sample_with_rng,
    save_model,
    score,
    train,
)
from .prng import Pcg64
from .syllabifier import InvalidPhoneString, StressWeights, parse_and_plan, string_violations
from .variation import Regime, TransformKind, TransformSpec, apply as apply_transform

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_FORMAT = 3

ENV_ALPHABET = "PHONOSPACE_ALPHABET"


def _load_alphabet(args) -> Alphabet:
    path = args.alphabet or os.environ.get(ENV_ALPHABET)
    if path:
        return load_alphabet_path(path)
    return default_alphabet()


def _weights(args) -> StressWeights:
    if not getattr(args, "stress_weights", None):
        return StressWeights()
    parts = [float(x) for x in args.stress_weights.split(",")]
    if len(parts) != 4:
        raise ValueError("--stress-weights takes four comma-separated numbers: D,L,T,count")
    return StressWeights(*parts)


def cmd_validate(args) -> int:
    alphabet = _load_alphabet(args)
    n_valid = n_invalid = 0
    for i, rec in enumerate(corpus_io.read_corpus(args.corpus), start=1):
        violations = string_violations(rec.phones, alphabet)
        if violations:
            n_invalid += 1
            detail = "; ".join(str(v) for v in violations)
            print(f"string {i} (line {rec.line}): invalid {detail}")
        else:
            n_valid += 1
            print(f"string {i} (line {rec.line}): valid")
    print(f"{n_valid} valid, {n_invalid} invalid")
    if n_invalid and not args.skip_invalid:
        return EXIT_DOMAIN
    return EXIT_OK


def _report_skipped(i: int, rec, exc: InvalidPhoneString) -> None:
    print(f"error: string {i} (line {rec.line}): invalid {exc}; skipped", file=sys.stderr)


def cmd_syllabify(args) -> int:
    alphabet = _load_alphabet(args)
    weights = _weights(args)
    for i, rec in enumerate(corpus_io.read_corpus(args.corpus), start=1):
        try:
            s, parse, scores, classes, plan = parse_and_plan(rec.phones, alphabet, weights)
        except InvalidPhoneString as exc:
            if not args.skip_invalid:
                raise
            _report_skipped(i, rec, exc)
            continue
        doc = {
            "string": i,
            "line": rec.line,
            "symbols": [alphabet.symbol_of(p.marker) for p in s.phones],
            "syllables": [
                {
                    "start": syl.start, "nucleus": syl.nucleus, "end": syl.end,
                    "score": sc, "class": cls.value,
                }
                for syl, sc, cls in zip(parse.syllables, scores, classes)
            ],
            "factors": [
                {
                    "target": f.target,
                    "context": [c for c in f.context],
                    "unit": f.unit.value,
                    "class": f.stress.value,
                }
                for f in plan.factors
            ],
        }
        if args.json:
            print(json.dumps(doc, separators=(",", ":")))
        else:
            print(f"string {i} (line {rec.line}): {''.join(doc['symbols'])}")
            for syl in doc["syllables"]:
                print(f"  syllable {syl['start']}..{syl['end']} nucleus={syl['nucleus']}"
                      f" score={syl['score']} class={syl['class']}")
            for f in doc["factors"]:
                ctx = ",".join("null" if c is None else str(c) for c in f["context"])
                print(f"  p(phone[{f['target']}] | {ctx}) [{f['unit']}/{f['class']}]")
    return EXIT_OK


def cmd_train(args) -> int:
    alphabet = _load_alphabet(args)
    model = train(
        corpus_io.read_corpus(args.corpus),
        alpha=args.alpha, epsilon=args.epsilon, alphabet=alphabet,
        limits=args.limits, weights=_weights(args), skip_invalid=args.skip_invalid,
    )
    save_model(model, args.out)
    print(f"trained {len(model.tables)} keys -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_score(args) -> int:
    alphabet = _load_alphabet(args)
    model = load_model(args.model, alphabet)
    weights = _weights(args)
    total = 0.0
    for i, rec in enumerate(corpus_io.read_corpus(args.corpus), start=1):
        try:
            lp = score(model, rec.phones, weights)
        except InvalidPhoneString as exc:
            if not args.skip_invalid:
                raise
            _report_skipped(i, rec, exc)
            continue
        total += lp
        print(f"string {i} (line {rec.line}): {lp!r}")
    print(f"total: {total!r}")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.n < 0:
        raise ValueError(f"-n must be nonnegative, got {args.n}")
    if args.max_syllables < 1:
        raise ValueError(f"--max-syllables must be at least 1, got {args.max_syllables}")
    alphabet = _load_alphabet(args)
    if args.model:
        model = load_model(args.model, alphabet)
    else:
        model = generic_model(alphabet, epsilon=args.epsilon)
    weights = _weights(args)
    rng = Pcg64(args.seed)
    strings = [sample_with_rng(model, args.max_syllables, rng, weights) for _ in range(args.n)]
    header = [
        "phonospace corpus",
        "prng: pcg64",
        f"seed: {args.seed}",
        f"n: {args.n} max-syllables: {args.max_syllables}",
        f"alphabet: {alphabet.version}",
    ]
    if args.out:
        corpus_io.write_corpus(strings, args.out, header)
        print(f"wrote {args.n} strings -> {args.out}", file=sys.stderr)
    else:
        corpus_io.write_corpus(strings, sys.stdout, header)
    return EXIT_OK


def cmd_vary(args) -> int:
    alphabet = _load_alphabet(args)
    model = load_model(args.model, alphabet)
    spec = TransformSpec(TransformKind(args.transform), args.lam)
    regime = Regime(rate=args.rate, loud=args.loud, pitch=args.pitch)
    save_model(apply_transform(model, regime, spec), args.out)
    print(f"{args.transform} lambda={args.lam} -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_info(args) -> int:
    alphabet = _load_alphabet(args)
    doc = {"alphabet_version": alphabet.version, "cells": len(alphabet)}
    if args.model:
        model = load_model(args.model, alphabet)
        doc["model"] = {
            "keys": len(model.tables),
            "epsilon": model.epsilon,
            "alpha": model.alpha,
            "limits": model.limits.to_json(),
        }
        if model.transforms:  # as saved in the model file, in stack order
            doc["model"]["transforms"] = [t.to_json() for t in model.transforms]
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phonospace")
    parser.add_argument("--alphabet", help=f"alphabet table path (default: ${ENV_ALPHABET} or packaged)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check corpus strings against the validity rules")
    p.add_argument("corpus")
    p.add_argument("--skip-invalid", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("syllabify", help="syllables, stress and dependency plans per string")
    p.add_argument("corpus")
    p.add_argument("--json", action="store_true")
    p.add_argument("--skip-invalid", action="store_true",
                   help="report invalid strings on stderr and go on")
    p.add_argument("--stress-weights")
    p.set_defaults(func=cmd_syllabify)

    p = sub.add_parser("train", help="estimate a model from a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--limits", choices=["observed", "full"], default="observed")
    p.add_argument("--skip-invalid", action="store_true")
    p.add_argument("--stress-weights")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="log-probability of each corpus string")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--skip-invalid", action="store_true",
                   help="report invalid strings on stderr and go on")
    p.add_argument("--stress-weights")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sample", help="draw strings from a model")
    p.add_argument("--model")
    p.add_argument("--epsilon", type=float, default=0.05, help="for the generic model when no --model")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-syllables", type=int, default=3)
    p.add_argument("--out")
    p.add_argument("--stress-weights")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("vary", help="apply a variation transform to a model")
    p.add_argument("--model", required=True)
    p.add_argument("--transform", required=True, choices=[k.value for k in TransformKind])
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--loud", type=float, default=1.0)
    p.add_argument("--pitch", type=float, default=1.0,
                   help="finite and > 0; no transform reads it yet (see the ROADMAP item "
                        "'Variation conditioned on each string's own prosody')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vary)

    p = sub.add_parser("info", help="alphabet and model metadata")
    p.add_argument("--model")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"error: is a directory: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except (CorpusFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (InvalidPhoneString, AlphabetMismatchError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
