"""Benchmark of the phonospace command line, end to end and layer by layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a research session run the way a user runs it: one
fresh ``python -m phonospace.cli`` process per verb, with ``src`` on
PYTHONPATH. A session is ``train``, ``info --model``, ``vary``,
``score`` and ``sample``. The workloads differ in input sizes and in
which model each verb reads, so that each one loads a different layer.

Sessions are repeated while another one fits in ``--seconds`` (at least
once), each on fresh corpora drawn from ``(--seed, repetition)`` with
the recipe of ``tests/conftest.py::random_valid_string`` (max_len 14,
prosody span 8). Every metric is the median over the repetitions. Many
short sessions rather than one long one: on a shared machine the speed
of the processor drifts over seconds, and the median over many moments
and many input draws is what stays steady from run to run.

Every verb's output is checked: ``score`` lines against
``tests/oracle.py::oracle_score`` on a seeded subset, every sampled
string for a finite oracle score under the generic model, and ``info``
against the key count ``train`` reported. The first repetition also
checks the varied model for a byte-identical save -> load -> save and
scores under a trained model against the oracle. Verbs are spawned by
``perfbench/launcher.py``, so that each peak RSS is the verb's own.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each
session once untraced and once with every verb traced in-process
(``perfbench/tracing.py``), checks that both give the same bytes, and
prints the per-layer metrics, the tracing overhead per verb among them.
Spans are written to ``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the failed-operations ratio (verbs that exit non-zero
or fail their check, over verbs run).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
TRACING = Path(__file__).resolve().parent / "tracing.py"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
OUT = Path(__file__).resolve().parent / "out"

RUN_BUDGET_S = 170.0    # every run ends within 180 s, killed verbs included
ORACLE_SUBSET = 64      # score lines checked against the oracle per score verb
DIST_CACHE_SIZE = 8192  # entries of LanguageModel.dist()'s LRU cache


@dataclass(frozen=True)
class Workload:
    why: str
    train: int          # strings the train verb estimates a model from
    score: int          # held-out strings the score verb scores
    sample: int         # strings the sample verb draws
    model: str          # model info, score and sample read: "generic" or "trained"
    transform: str      # variation transform vary applies to the trained model


WORKLOADS = {
    "fallback-score": Workload(
        why="generic model: 500 held-out strings a repetition scored through ~1,600 "
            "fallback dists, 200 rejection-sampled strings, a straightening of every stored key",
        train=40, score=500, sample=200, model="generic", transform="straightening"),
    "train-reload": Workload(
        why="every verb after train reloads the 60-string trained model: "
            "serialization and stored-key lookups dominate",
        train=60, score=60, sample=10, model="trained", transform="syncope"),
}


# ---------------------------------------------------------------------------
# arithmetic


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the base is 0."""
    return num / den if den else 0.0


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# inputs and verb processes


@dataclass
class Inputs:
    files: Dict[str, Path]
    heldout: list        # phone lists of the held-out corpus, for the oracle
    subset: List[int]    # indices of held-out strings checked against the oracle
    sample_seed: int


def make_inputs(w: Workload, seed: int, rep: int, work: Path, lib, alphabet,
                recipe) -> Inputs:
    """Corpora of one repetition, drawn from (seed, rep)."""
    import numpy as np
    files = {name: work / f"{name}.jsonl" for name in ("train", "heldout", "sample")}
    files.update({name: work / f"{name}.json" for name in ("generic", "trained", "varied")})
    corpora = {}
    for stream, (name, n) in enumerate((("train", w.train), ("heldout", w.score))):
        rng = np.random.default_rng([seed, rep, stream])
        corpora[name] = [recipe(rng, alphabet, max_len=14, prosody_span=8) for _ in range(n)]
        lib.write_corpus(corpora[name], str(files[name]))
    rng = np.random.default_rng([seed, rep, 2])
    n = min(ORACLE_SUBSET, w.score)
    subset = sorted(int(i) for i in rng.choice(w.score, size=n, replace=False))
    return Inputs(files, corpora["heldout"], subset, seed * 1000 + rep)


@dataclass
class VerbRun:
    verb: str
    argv: List[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: Path
    stderr: Path
    trace: Optional[dict] = None
    errors: List[str] = field(default_factory=list)


class Launcher:
    """The small process that spawns, times and reaps verbs (``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, cmd: List[str], stdout: Path, stderr: Path, timeout: float) -> dict:
        request = {"cmd": cmd, "cwd": str(ROOT), "env": dict(os.environ, PYTHONPATH=str(SRC)),
                   "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_verb(launcher: Launcher, argv: List[str], work: Path, tag: str, deadline: float,
             traced: bool) -> VerbRun:
    """One CLI process, timed from spawn to exit, with its peak RSS."""
    stdout, stderr = work / f"{tag}.out", work / f"{tag}.err"
    trace_path = work / f"{tag}.trace.json"
    if traced:
        cmd = [sys.executable, str(TRACING), str(trace_path), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "phonospace.cli", *argv]
    got = launcher.run(cmd, stdout, stderr, max(1.0, deadline - time.monotonic()))
    run = VerbRun(argv[0], argv, got["rc"], got["wall_s"], got["rss_kb"] / 1024.0, stdout,
                  stderr)
    if run.rc != 0:
        run.errors.append(f"exit code {run.rc}: {stderr.read_text(errors='replace')[-400:]}")
    elif traced:
        run.trace = json.loads(trace_path.read_text())
    return run


VERBS = ("train", "info", "vary", "score", "sample")


def session(launcher: Launcher, w: Workload, inputs: Inputs, work: Path, tag: str,
            deadline: float, traced: bool) -> List[VerbRun]:
    """One run of each verb, in the order of VERBS."""
    files = inputs.files
    sample = ["sample", "-n", str(w.sample), "--seed", str(inputs.sample_seed),
              "--out", str(files["sample"])]
    if w.model == "trained":
        sample += ["--model", str(files["trained"])]
    steps = [
        ["train", str(files["train"]), "--out", str(files["trained"])],
        ["info", "--model", str(files[w.model])],
        ["vary", "--model", str(files["trained"]), "--transform", w.transform,
         "--lambda", "0.5", "--rate", "2", "--out", str(files["varied"])],
        ["score", str(files["heldout"]), "--model", str(files[w.model])],
        sample,
    ]
    return [run_verb(launcher, argv, work, f"{tag}-{argv[0]}", deadline, traced)
            for argv in steps]


# ---------------------------------------------------------------------------
# output gate

SCORE_LINE = re.compile(r"string (\d+) \(line (\d+)\): (\S+)")


def check_scores(text: str, strings, model, subset, oracle_score, weights) -> List[str]:
    """Errors in ``score`` output: shape, total, and subset vs. the oracle.

    A checked line must equal the oracle within 1e-9 in log space, and be
    -inf exactly when the oracle gives -inf.
    """
    lines = text.splitlines()
    if len(lines) != len(strings) + 1:
        return [f"expected {len(strings) + 1} lines, got {len(lines)}"]
    values = []
    for i, line in enumerate(lines[:-1], start=1):
        m = SCORE_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != i:
            return [f"malformed score line {i}: {line!r}"]
        values.append(float(m.group(3)))
    total = 0.0
    for v in values:
        total += v
    errors = []
    if lines[-1] != f"total: {total!r}":
        errors.append(f"total line {lines[-1]!r} is not the sum {total!r}")
    for i in subset:
        got, want = values[i], oracle_score(model, strings[i], weights)
        if math.isinf(got) or math.isinf(want):
            ok = got == want
        else:
            ok = abs(got - want) <= 1e-9
        if not ok:
            errors.append(f"string {i + 1}: score {got!r}, oracle {want!r}")
    return errors


class Gate:
    """Checks of each session's outputs, recorded in the runs' ``errors``."""

    def __init__(self, w: Workload, alphabet, lib, oracle_score):
        self.w, self.alphabet, self.lib, self.oracle_score = w, alphabet, lib, oracle_score
        self.full = True

    def check(self, runs: List[VerbRun], inputs: Inputs, full: bool) -> Dict[str, bytes]:
        """Check an untraced session; returns digests of its outputs.

        ``full`` adds the checks that load a trained model in this process
        (the varied model's round trip, oracle scores under a stored
        model). Each costs about as much as a verb, so only the first
        repetition of a run makes them.
        """
        self.full = full
        keys = None
        for run in runs:
            if run.rc != 0:
                continue
            try:
                keys = getattr(self, f"_check_{run.verb}")(run, inputs, keys)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                run.errors.append(f"output check raised {exc!r}")
        return self.digests(runs, inputs)

    def same(self, runs: List[VerbRun], inputs: Inputs, reference: Dict[str, bytes]) -> None:
        """A traced session must reproduce the untraced one's bytes."""
        digests = self.digests(runs, inputs)
        for run in runs:
            if run.rc == 0 and digests[run.verb] != reference[run.verb]:
                run.errors.append("output differs from the untraced run")

    @staticmethod
    def digests(runs: List[VerbRun], inputs: Inputs) -> Dict[str, bytes]:
        written = {"train": "trained", "vary": "varied", "sample": "sample"}
        out = {}
        for run in runs:
            path = inputs.files[written[run.verb]] if run.verb in written else run.stdout
            out[run.verb] = hashlib.sha256(path.read_bytes()).digest() if path.exists() else b""
        return out

    # Each _check_<verb> returns the trained key count, which train reads
    # from its own stderr and the later checks compare against.

    def _check_train(self, run: VerbRun, inputs: Inputs, keys):
        m = re.search(r"trained (\d+) keys", run.stderr.read_text())
        if m is None:
            run.errors.append("no key count on stderr")
            return -1
        return int(m.group(1))

    def _check_info(self, run: VerbRun, inputs: Inputs, keys):
        doc = json.loads(run.stdout.read_text())
        want = 0 if self.w.model == "generic" else keys
        if doc["cells"] != len(self.alphabet) or doc["model"]["keys"] != want:
            run.errors.append(f"info reports {doc}, expected {want} keys")
        return keys

    def _check_vary(self, run: VerbRun, inputs: Inputs, keys):
        if not self.full:
            return keys
        text = inputs.files["varied"].read_text()
        varied = self.lib.load_model(text, self.alphabet)
        buf = io.StringIO()
        self.lib.save_model(varied, buf)
        if buf.getvalue() != text:
            run.errors.append("varied model is not byte-stable on save -> load -> save")
        if len(varied.tables) != keys:
            run.errors.append(f"varied model has {len(varied.tables)} keys, not {keys}")
        return keys

    def _check_score(self, run: VerbRun, inputs: Inputs, keys):
        model, subset = None, []
        if self.full or self.w.model == "generic":
            model = self.lib.load_model(inputs.files[self.w.model], self.alphabet)
            subset = inputs.subset
        run.errors += check_scores(run.stdout.read_text(), inputs.heldout, model, subset,
                                   self.oracle_score, self.lib.StressWeights())
        return keys

    def _check_sample(self, run: VerbRun, inputs: Inputs, keys):
        generic = self.lib.generic_model(self.alphabet)
        sampled = [rec.phones for rec in self.lib.read_corpus(str(inputs.files["sample"]))]
        if len(sampled) != self.w.sample:
            run.errors.append(f"{len(sampled)} strings sampled, not {self.w.sample}")
        for i, phones in enumerate(sampled, start=1):
            if not math.isfinite(self.oracle_score(generic, phones, self.lib.StressWeights())):
                run.errors.append(f"sampled string {i} has no finite oracle score")
                break
        return keys


# ---------------------------------------------------------------------------
# metrics


def session_metrics(w: Workload, runs: List[VerbRun], inputs: Inputs) -> Dict[str, float]:
    wall = {run.verb: run.wall_s for run in runs}
    return {
        "setup_s": wall["info"],
        "train_strings_per_s": w.train / wall["train"],
        "score_strings_per_s": w.score / wall["score"],
        "sample_strings_per_s": w.sample / wall["sample"],
        "vary_s": wall["vary"],
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "model_bytes": float(inputs.files["trained"].stat().st_size),
    }


LAYERS = ("cli", "alphabet", "corpus", "syllabifier", "model", "variation")


def layer_metrics(traced: List[VerbRun], untraced: List[VerbRun]) -> Dict[str, float]:
    """Per-layer numbers summed over the traced verb processes of one session."""
    calls, total, self_s, counts, caches = Counter(), Counter(), Counter(), Counter(), Counter()
    for run in traced:
        t = run.trace
        calls.update(t["calls"])
        total.update(t["total_s"])
        self_s.update(t["self_s"])
        counts.update(t["counts"])
        for fn, info in t["caches"].items():
            caches[f"{fn}.hits"] += info["hits"]
            caches[f"{fn}.misses"] += info["misses"]
    durations = [d for run in traced for d in run.trace["durations"].get("model.score", [])]
    tail = tail_percentile(len(durations)) or 50.0
    accepted = counts["sample_accepted"]
    attempts = calls["model.sample.attempt"]
    invalid = counts["sample_invalid"]
    wrong_class = counts["sample_classified"] - accepted
    m = {
        "cli.import_s": statistics.median(r.trace["import_s"] for r in traced),
        "alphabet.load_s": statistics.median(r.trace["total_s"].get("alphabet.load", 0.0)
                                             for r in traced),
        "corpus.read_s": total["corpus.read"],
        "corpus.phones": counts["phones_read"],
        "corpus.write_s": total["corpus.write"],
        "sonority.cmp_sonority.hits": caches["cmp_sonority.hits"],
        "sonority.cmp_sonority.misses": caches["cmp_sonority.misses"],
        "sonority.is_diphthongal_step.hits": caches["is_diphthongal_step.hits"],
        "sonority.is_diphthongal_step.misses": caches["is_diphthongal_step.misses"],
    }
    for stage in ("validate", "collapse", "parse", "stress", "plan"):
        m[f"syllabifier.{stage}_s"] = total[f"syllabifier.{stage}"]
    m.update({
        "syllabifier.strings": calls["syllabifier.parse"],
        "syllabifier.factors": counts["factors"],
        "model.dist.calls": calls["model.dist"],
        "model.dist.s": total["model.dist"],
        "model.dist.stored_share": ratio(counts["dist_stored_calls"], calls["model.dist"]),
        "model.generic_dist.calls": calls["model.generic_dist"],
        "model.generic_dist.s": total["model.generic_dist"],
        "model.generic_dist.rebuild_ratio": ratio(calls["model.generic_dist"],
                                                  counts["generic_distinct_keys"]),
        "model.categorical_dist.calls": calls["model.categorical_dist"],
        "model.categorical_dist.s": total["model.categorical_dist"],
        "model.stored_entries": max(r.trace["counts"]["stored_entries"] for r in traced),
        "model.train_s": total["model.train"],
        "model.save_s": total["model.save"],
        "model.model_to_json_s": total["model.model_to_json"],
        "model.load_s": total["model.load"],
        "model.score.calls": len(durations),
        "model.score.p50_ms": 1e3 * percentile(durations, 50.0) if durations else 0.0,
        "model.score.tail_ms": 1e3 * percentile(durations, tail) if durations else 0.0,
        "model.sample.accepted": accepted,
        "model.sample.attempts": attempts,
        "model.sample.attempts_per_accept": ratio(attempts, accepted),
        "model.sample.rejected_invalid": invalid,
        "model.sample.rejected_resample": attempts - accepted - invalid - wrong_class,
        "model.sample.rejected_class": wrong_class,
        "model.sample.s": total["model.sample"],
        "variation.apply.calls": calls["variation.apply"],
        "variation.apply.s": total["variation.apply"],
        "variation.ordinal_distance.calls": calls["variation.ordinal_distance"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    plain = {run.verb: run.wall_s for run in untraced}
    for run in traced:
        m[f"trace.{run.verb}.overhead_s"] = run.wall_s - plain[run.verb]
    return m


def input_stats(w: Workload, traced: List[VerbRun]) -> Dict[str, float]:
    """Sizes and key statistics of one repetition's inputs, from its traced session."""
    counts = {run.verb: run.trace["counts"] for run in traced}
    score = counts["score"]
    return {
        "train.strings": w.train,
        "train.phones": counts["train"]["phones_read"],
        "score.strings": w.score,
        "score.phones": score["phones_read"],
        "score.distinct_keys": score["dist_distinct_keys"],
        "score.unseen_key_share": ratio(score["dist_distinct_unseen"],
                                        score["dist_distinct_keys"]),
        "score.keys_per_cache_entry": score["dist_distinct_keys"] / DIST_CACHE_SIZE,
    }


def medians(reps: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(rep[k] for rep in reps) for k in reps[0]} if reps else {}


# ---------------------------------------------------------------------------
# entry point


def load_file_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("the seed must be non-negative")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    needed = [ROOT / "BENCHMARK.json", SRC / "phonospace" / "cli.py",
              TESTS / "conftest.py", TESTS / "oracle.py"]
    missing = [p.name for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a phonospace checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    launcher = Launcher()  # before this process grows
    try:
        return measure(args, units, launcher, started + RUN_BUDGET_S)
    finally:
        launcher.close()


def measure(args, units: Dict[str, str], launcher: Launcher, deadline: float) -> int:
    started = time.monotonic()
    sys.path.insert(0, str(SRC))
    import phonospace as lib
    recipe = load_file_module("perfbench_conftest", TESTS / "conftest.py").random_valid_string
    oracle_score = load_file_module("perfbench_oracle", TESTS / "oracle.py").oracle_score

    w = WORKLOADS[args.workload]
    alphabet = lib.default_alphabet()
    gate = Gate(w, alphabet, lib, oracle_score)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runs: List[VerbRun] = []
    reps: List[Dict[str, float]] = []
    stats: List[Dict[str, float]] = []
    spans = []
    try:
        lib.save_model(lib.generic_model(alphabet), str(work / "generic.json"))
        measure_start = time.monotonic()
        rep_s = 0.0
        while not reps or time.monotonic() - measure_start + rep_s <= args.seconds:
            rep_start = time.monotonic()
            n = len(reps)
            inputs = make_inputs(w, args.seed, n, work, lib, alphabet, recipe)
            plain = session(launcher, w, inputs, work, f"r{n}", deadline, traced=False)
            reference = gate.check(plain, inputs, full=not reps)
            traced = []
            if args.trace:
                traced = session(launcher, w, inputs, work, f"t{n}", deadline, traced=True)
                gate.same(traced, inputs, reference)
            runs += plain + traced
            if any(r.errors for r in plain + traced):
                break  # a failed repetition gives no figures
            if args.trace:
                reps.append(layer_metrics(traced, plain))
                stats.append(input_stats(w, traced))
                spans += [{"trace": f"r{n}-{r.verb}", **span}
                          for r in traced for span in r.trace["spans"]]
            else:
                reps.append(session_metrics(w, plain, inputs))
            rep_s = time.monotonic() - rep_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if r.errors)
    for r in runs:
        for e in r.errors:
            print(f"FAILED {' '.join(r.argv)}: {e}", file=sys.stderr)
    metrics = medians(reps)
    if args.trace:
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetition(s) in "
          f"{time.monotonic() - started:.1f} s, {len(runs)} verbs, {failed} failed, "
          f"failed_ops_ratio {ratio(failed, len(runs))}")
    for k, v in medians(stats).items():
        print(f"  input {k} = {v:.6g} (median over repetitions)")
    for k, v in metrics.items():
        each = " ".join(f"{rep[k]:.6g}" for rep in reps)
        print(f"  {k} = {v:.6g} {units[k]} (repetitions: {each})")
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
