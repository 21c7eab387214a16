"""In-process tracing of one phonospace CLI verb.

Run as ``python perfbench/tracing.py OUT.json -- <cli arguments>`` with
``src`` on PYTHONPATH. It imports ``phonospace.cli``, wraps the public
callables of every layer wherever they are looked up, runs
``phonospace.cli.main`` once and writes the counts, times, spans and
cache statistics to OUT.json. The exit code is the verb's.

Every wrapped call is timed on one stack, so each name gets its call
count, inclusive time and self time (inclusive time minus the time of
wrapped calls nested inside it). Hot calls are aggregated; only the
coarse calls named in ``SPANS`` are also kept as individual spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Call counts, inclusive and self times, and spans on one call stack.

    A call to a name that is already open on the stack (a wrapped
    function reached again through another wrapped function of the same
    name) is counted but not timed again, so inclusive times never count
    an interval twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.spans = []
        self._stack = []  # frames: [name, start, child time, span id]
        self._open = Counter()
        self._next_span = 0

    def enter(self, name, span=False):
        self.calls[name] += 1
        if self._open[name]:
            return None
        self._open[name] += 1
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame, keep=False):
        if frame is None:
            return
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if keep:
            self.durations[name].append(duration)
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "start": start, "end": end})

    def current(self):
        """Name of the innermost open call, or None."""
        return self._stack[-1][0] if self._stack else None


def traced(tracer, name, fn, span=False, keep=False, hook=None):
    """``fn`` timed under ``name``; ``hook(args, result, caller)`` sees each return."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, keep)
        if hook is not None:
            hook(args, result, tracer.current())
        return result
    return wrapper


def traced_iter(tracer, name, fn, hook):
    """Generator function ``fn`` with the time of each ``next()`` counted under ``name``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            hook(item)
            yield item
    return wrapper


# Coarse calls recorded as spans as well as aggregated.
SPANS = {"alphabet.load", "corpus.write", "model.train", "model.load", "model.save",
         "model.model_to_json"}


class Counts:
    """Outcome counters the hooks fill in; written out with the tracer's data."""

    def __init__(self):
        self.phones_read = 0
        self.factors = 0
        self.dist_stored_calls = 0
        self.dist_keys = {}  # key -> stored in the model's tables
        self.generic_keys = set()
        self.stored_entries = 0
        self.sample_accepted = 0
        self.sample_invalid = 0
        self.sample_classified = 0

    def on_read(self, record):
        self.phones_read += len(record.phones)

    def on_plan(self, args, plan, caller):
        self.factors += len(plan.factors)

    def on_dist(self, args, dist, caller):
        model, key = args[0], args[1]
        stored = key in model.tables
        self.dist_stored_calls += stored
        self.dist_keys[key] = stored

    def on_generic(self, args, dist, caller):
        self.generic_keys.add(args[1])

    def on_model(self, args, model, caller):
        entries = sum(len(d.entries) for d in model.tables.values())
        self.stored_entries = max(self.stored_entries, entries)

    def on_sampled(self, args, string, caller):
        self.sample_accepted += 1

    def on_violations(self, args, violations, caller):
        if violations and caller == "model.sample":
            self.sample_invalid += 1

    def on_classified(self, args, classes, caller):
        if caller == "model.sample":
            self.sample_classified += 1

    def as_dict(self):
        return {
            "phones_read": self.phones_read,
            "factors": self.factors,
            "dist_stored_calls": self.dist_stored_calls,
            "dist_distinct_keys": len(self.dist_keys),
            "dist_distinct_unseen": sum(1 for stored in self.dist_keys.values() if not stored),
            "generic_distinct_keys": len(self.generic_keys),
            "stored_entries": self.stored_entries,
            "sample_accepted": self.sample_accepted,
            "sample_invalid": self.sample_invalid,
            "sample_classified": self.sample_classified,
        }


def _rebind(original, wrapper):
    """Replace every binding of ``original`` in the loaded phonospace modules."""
    found = False
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "phonospace" or mod_name.startswith("phonospace.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                found = True
    if not found:
        raise RuntimeError(f"no module binds {original!r}")


def install(tracer, counts):
    """Wrap the public callables of each layer where they are looked up."""
    from phonospace import alphabet, cli, corpus, model, syllabifier, variation

    functions = [
        (alphabet.default_alphabet, "alphabet.load", {}),
        (corpus.write_corpus, "corpus.write", {}),
        (syllabifier.validate_string, "syllabifier.validate", {}),
        (syllabifier.string_violations, "syllabifier.validate", {"hook": counts.on_violations}),
        (syllabifier.collapse_repeats, "syllabifier.collapse", {}),
        (syllabifier.parse_syllables, "syllabifier.parse", {}),
        (syllabifier.stress_score, "syllabifier.stress", {}),
        (syllabifier.classify_stress, "syllabifier.stress", {"hook": counts.on_classified}),
        (syllabifier.dependency_plan, "syllabifier.plan", {"hook": counts.on_plan}),
        (model.score, "model.score", {"keep": True}),
        (model.train, "model.train", {"hook": counts.on_model}),
        (model.sample_with_rng, "model.sample", {"hook": counts.on_sampled}),
        (model.legal_stress_sequences, "model.sample.attempt", {}),
        (model.save_model, "model.save", {}),
        (model.model_to_json, "model.model_to_json", {}),
        (model.load_model, "model.load", {"hook": counts.on_model}),
        (variation.ordinal_distance, "variation.ordinal_distance", {}),
    ]
    functions += [(getattr(cli, name), f"cli.{name[4:]}", {})
                  for name in dir(cli) if name.startswith("cmd_")]
    for fn, name, options in functions:
        _rebind(fn, traced(tracer, name, fn, span=name in SPANS or name.startswith("cli."),
                           **options))
    _rebind(corpus.read_corpus, traced_iter(tracer, "corpus.read", corpus.read_corpus,
                                            counts.on_read))

    methods = [
        (model.LanguageModel, "dist", "model.dist", counts.on_dist),
        (model.LanguageModel, "generic_dist", "model.generic_dist", counts.on_generic),
        (model.CategoricalDist, "__init__", "model.categorical_dist", None),
        (variation.AppliedTransform, "apply", "variation.apply", None),
    ]
    for cls, attr, name, hook in methods:
        setattr(cls, attr, traced(tracer, name, getattr(cls, attr), hook=hook))


def main(argv):
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json -- <phonospace cli arguments>")
    import_start = time.perf_counter()
    import phonospace.cli
    import phonospace.sonority as sonority
    import_s = time.perf_counter() - import_start

    tracer, counts = Tracer(), Counts()
    install(tracer, counts)
    rc = phonospace.cli.main(cli_args)
    sys.stdout.flush()

    doc = {
        "import_s": import_s,
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total),
        "self_s": dict(tracer.self_time),
        "durations": dict(tracer.durations),
        "spans": tracer.spans,
        "counts": counts.as_dict(),
        "caches": {
            name: getattr(sonority, name).cache_info()._asdict()
            for name in ("cmp_sonority", "is_diphthongal_step")
        },
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
