"""Self-tests of the benchmark's own arithmetic and output gate.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from phonospace import StressWeights, default_alphabet, generic_model, score  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert run.percentile(values, 50) == 3
    assert run.percentile(values, 0) == 1
    assert run.percentile(values, 80) == 4
    assert run.percentile(values, 81) == 5
    assert run.percentile(values, 100) == 5


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, expected))
        assert beyond >= 10


def test_ratio_reports_zero_for_empty_base():
    assert run.ratio(3, 2) == 1.5
    assert run.ratio(0, 4) == 0.0
    assert run.ratio(5, 0) == 0.0


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    t = Tracer(clock)

    def at(time, action, *args):
        clock.now = time
        return action(*args)

    a = at(0.0, t.enter, "outer", True)
    b = at(1.0, t.enter, "child", True)
    c = at(2.0, t.enter, "grandchild", True)
    at(3.0, t.exit, c)
    at(5.0, t.exit, b)
    b2 = at(6.0, t.enter, "child")
    at(7.0, t.exit, b2)
    at(10.0, t.exit, a)

    assert t.total == {"outer": 10.0, "child": 5.0, "grandchild": 1.0}
    assert t.self_time == {"outer": 5.0, "child": 4.0, "grandchild": 1.0}
    assert t.calls == {"outer": 1, "child": 2, "grandchild": 1}
    spans = {s["name"]: s for s in t.spans}
    assert spans["grandchild"]["parent"] == spans["child"]["id"]
    assert spans["child"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert len(t.spans) == 3  # the second child call was aggregated only


def test_reentered_name_is_counted_but_not_timed_twice():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.enter("validate")
    clock.now = 1.0
    inner = t.enter("validate")
    assert inner is None and t.current() == "validate"
    clock.now = 2.0
    t.exit(inner)
    clock.now = 4.0
    t.exit(outer)
    assert t.calls["validate"] == 2
    assert t.total["validate"] == 4.0 == t.self_time["validate"]


def _trace(calls=None, counts=None, total=None):
    base = {
        "phones_read": 0, "factors": 0, "dist_stored_calls": 0, "dist_distinct_keys": 0,
        "dist_distinct_unseen": 0, "generic_distinct_keys": 0, "stored_entries": 0,
        "sample_accepted": 0, "sample_invalid": 0, "sample_classified": 0,
    }
    base.update(counts or {})
    return {
        "import_s": 0.1, "calls": calls or {}, "total_s": total or {}, "self_s": total or {},
        "counts": base, "durations": {}, "spans": [],
        "caches": {name: {"hits": 1, "misses": 2}
                   for name in ("cmp_sonority", "is_diphthongal_step")},
    }


def _runs(traces, wall):
    return [run.VerbRun(verb, [], 0, wall, 1.0, Path("o"), Path("e"), trace)
            for verb, trace in zip(run.VERBS, traces)]


def test_layer_ratios_and_sample_rejections():
    sampler = _trace(
        calls={"model.sample.attempt": 25, "model.dist": 40, "model.generic_dist": 6},
        counts={"sample_accepted": 10, "sample_invalid": 6, "sample_classified": 14,
                "dist_stored_calls": 10, "generic_distinct_keys": 4},
        total={"model.dist": 0.5})
    others = [_trace() for _ in run.VERBS[1:]]
    traced = _runs([sampler] + others, wall=2.0)
    plain = _runs([None] * len(run.VERBS), wall=1.5)
    m = run.layer_metrics(traced, plain)
    assert m["model.sample.attempts_per_accept"] == 2.5
    assert m["model.sample.rejected_class"] == 4
    assert m["model.sample.rejected_invalid"] == 6
    assert m["model.sample.rejected_resample"] == 25 - 10 - 6 - 4
    assert m["model.dist.stored_share"] == 0.25
    assert m["model.generic_dist.rebuild_ratio"] == 1.5
    assert m["model.score.calls"] == 0
    assert m["model.self_s"] == 0.5
    assert m["sonority.cmp_sonority.misses"] == 2 * len(run.VERBS)
    assert all(m[f"trace.{v}.overhead_s"] == 0.5 for v in run.VERBS)


@pytest.fixture(scope="module")
def scored():
    """Score lines as the CLI prints them, for a few seeded strings."""
    conftest = run.load_file_module("perfbench_test_conftest", run.TESTS / "conftest.py")
    oracle = run.load_file_module("perfbench_test_oracle", run.TESTS / "oracle.py")
    alphabet = default_alphabet()
    model = generic_model(alphabet)
    rng = np.random.default_rng(7)
    strings = [conftest.random_valid_string(rng, alphabet, max_len=14) for _ in range(6)]
    values = [score(model, s) for s in strings]
    return strings, values, model, oracle.oracle_score


def _lines(values, total=None):
    out = [f"string {i} (line {3 * i}): {v!r}" for i, v in enumerate(values, start=1)]
    if total is None:
        total = 0.0
        for v in values:
            total += v
    out.append(f"total: {total!r}")
    return "\n".join(out) + "\n"


def _check(scored, text, subset=range(6)):
    strings, _, model, oracle = scored
    return run.check_scores(text, strings, model, list(subset), oracle, StressWeights())


def test_gate_accepts_library_scores(scored):
    assert _check(scored, _lines(scored[1])) == []


def test_gate_catches_a_wrong_score(scored):
    values = list(scored[1])
    values[3] += 1e-6
    errors = _check(scored, _lines(values))
    assert len(errors) == 1 and errors[0].startswith("string 4:")


def test_gate_catches_minus_infinity_the_oracle_does_not_give(scored):
    values = list(scored[1])
    values[0] = float("-inf")
    errors = _check(scored, _lines(values))
    assert any(e.startswith("string 1:") for e in errors)


def test_gate_checks_only_the_subset_but_always_the_total(scored):
    values = list(scored[1])
    values[5] += 1.0
    assert _check(scored, _lines(values), subset=range(5)) == []
    assert _check(scored, _lines(scored[1], total=1.0), subset=()) != []


def test_gate_rejects_missing_and_malformed_lines(scored):
    text = _lines(scored[1])
    assert _check(scored, text.replace("string 2 ", "string 9 "))
    assert _check(scored, "\n".join(text.splitlines()[1:]))
