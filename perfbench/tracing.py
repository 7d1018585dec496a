"""Traced mode: spans and counts at the package's layer boundaries.

The tracer wraps ppsmc's public functions and gap-law methods at every name
the program calls them through (``ppsmc.smc.stream`` as well as
``ppsmc.rng.stream``), so nothing under ``src/`` changes.  A span records its
name, start, end and parent; each thread keeps its own parent stack, and a
span opened in a worker thread with an empty stack takes the main thread's
innermost open span as its parent (the filter's thread pool runs inside
``conditional_sample``).  Self time is a span's duration minus the time during
which at least one of its children was open, so children that overlap in two
threads are not counted twice.

Spans are aggregated by (name, parent name) as they close; the first
``KEEP_SPANS`` are also kept whole.  Both are written out when the run ends.
A name that no longer exists in the program is skipped and reports zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

KEEP_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.active = False
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._next_id = 0
        self.spans: list = []
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        """Start new aggregates; kept spans carry on."""
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counters: dict = defaultdict(int)

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counters[counter] += amount

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(tracer, parent_name, args,
        kwargs, result)`` records counts once it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            # [name, parent, id, start, open children, cover start, covered]
            span = [name, parent, 0, 0.0, 0, 0.0, 0.0]
            stack.append(span)
            with tracer._lock:
                span[2] = tracer._next_id
                tracer._next_id += 1
                span[3] = perf_counter()
                if parent is not None:
                    if parent[4] == 0:
                        parent[5] = span[3]
                    parent[4] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(span, end)
            if after is not None:
                after(tracer, parent[0] if parent else None, args, kwargs, result)
            return result

        return traced

    def _close(self, span: list, end: float) -> None:
        name, parent, sid, start = span[:4]
        duration = end - start
        with self._lock:
            if parent is not None:
                parent[4] -= 1
                if parent[4] == 0:
                    parent[6] += end - parent[5]
            parent_name = parent[0] if parent is not None else None
            entry = self.stats[(name, parent_name)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - span[6]
            if len(self.spans) < KEEP_SPANS:
                self.spans.append({"id": sid, "name": name,
                                   "parent": parent[2] if parent is not None else None,
                                   "thread": threading.current_thread().name,
                                   "start": start, "end": end})
            else:
                self.dropped += 1

    def snapshot(self) -> dict:
        return {"stats": {f"{n}|{p}": list(v) for (n, p), v in self.stats.items()},
                "counters": dict(self.counters)}


# --- what is wrapped ------------------------------------------------------

def _after_filter(tracer, parent, args, kwargs, result):
    particles = args[2] if len(args) > 2 else kwargs["num_particles"]
    for row in getattr(result, "diagnostics", ()):
        tracer.add("smc.barrier_particles", particles)
        tracer.add("smc.dead", row.dead_count)
        tracer.add("smc.ess", row.ess)


def _after_propose(tracer, parent, args, kwargs, result):
    if parent == "smc.conditional_sample":
        tracer.add("smc.filter_proposals", 1)
        tracer.add("smc.proposed_events", len(result[0]))


def _after_resample(tracer, parent, args, kwargs, result):
    tracer.add("smc.resampled", len(result))
    tracer.add("smc.distinct_ancestors", len(set(result)))


def _after_decode(tracer, parent, args, kwargs, result):
    tracer.add("music.encoding.codes_decoded", len(result))


FUNCTIONS = [  # (span, module, attribute, after)
    ("rng.stream", "ppsmc.rng", "stream", None),
    ("rng.run_seed", "ppsmc.rng", "run_seed", None),
    ("models.step_log_probabilities", "ppsmc.models", "step_log_probabilities", None),
    ("smc.conditional_sample", "ppsmc.smc", "conditional_sample", _after_filter),
    ("smc.propose_segment", "ppsmc.smc", "propose_segment", _after_propose),
    ("smc.barrier_weight", "ppsmc.smc", "barrier_weight", None),
    ("smc.systematic_resample", "ppsmc.smc", "systematic_resample", _after_resample),
    ("smc.effective_sample_size", "ppsmc.smc", "effective_sample_size", None),
    ("beam.beam_search_sample", "ppsmc.beam", "beam_search_sample", None),
    ("music.encoding.decode", "ppsmc.music.encoding", "codes_to_events", _after_decode),
    ("music.encoding.decode", "ppsmc.music.encoding", "events_to_symbols", None),
    ("music.ngram.train", "ppsmc.music.ngram", "train_ngram", None),
    ("music.files.write_events", "ppsmc.music.files", "write_events", None),
    ("music.files.read_corpus", "ppsmc.music.files", "read_corpus", None),
    ("oracle.enumerate_conditional", "ppsmc.oracle", "enumerate_conditional", None),
    ("cli.main", "ppsmc.cli", "main", None),
]

METHODS = [  # (span, base class module, base class, method names)
    ("models.gap_distribution", "ppsmc.models", "SequenceModel", ("gap_distribution",)),
    ("models.gap_sample", "ppsmc.models", "InterArrivalDistribution", ("sample",)),
    ("models.gap_density", "ppsmc.models", "InterArrivalDistribution", ("pdf", "cdf", "survival")),
    ("music.ngram.pmf_lookup", "ppsmc.music.ngram", "NGramModel", ("masked_pmf", "sample_symbol")),
    ("music.ngram.sample_symbol", "ppsmc.music.ngram", "NGramModel", ("sample_symbol",)),
    ("music.ngram.raw_pmf", "ppsmc.music.ngram", "NGramModel", ("raw_pmf",)),
    ("music.ngram.load", "ppsmc.music.ngram", "NGramModel", ("load",)),
]

MODULES = ["ppsmc", "ppsmc.rng", "ppsmc.models", "ppsmc.smc", "ppsmc.beam", "ppsmc.oracle",
           "ppsmc.cli", "ppsmc.music", "ppsmc.music.encoding", "ppsmc.music.ngram",
           "ppsmc.music.adapter", "ppsmc.music.files"]


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function and method; returns the names not found."""
    for name in MODULES:
        _import(name)
    modules = [m for name, m in sys.modules.items()
               if name == "ppsmc" or name.startswith("ppsmc.")]
    missing = []
    for span, module, attr, after in FUNCTIONS:
        original = getattr(_import(module), attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        traced = tracer.wrap(span, original, after)
        for m in modules:  # every name the program calls it through
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
    for span, module, base_name, methods in METHODS:
        base = getattr(_import(module), base_name, None)
        if base is None:
            missing.append(f"{module}.{base_name}")
            continue
        for cls in _subclasses(base):
            for method in methods:
                raw = vars(cls).get(method)
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(tracer.wrap(span, raw.__func__)))
                elif callable(raw):
                    setattr(cls, method, tracer.wrap(span, raw))
    return missing


# --- per-layer metrics ----------------------------------------------------

def _combined(setup: dict, passes: dict, n_passes: int):
    """Aggregates of one set-up plus one pass (pass totals divided by their count)."""
    stats = defaultdict(lambda: [0.0, 0.0, 0.0])
    counters = defaultdict(float)
    for snap, scale in ((setup, 1.0), (passes, 1.0 / n_passes)):
        for key, values in snap["stats"].items():
            name, parent = key.split("|")
            for k in range(3):
                stats[(name, parent)][k] += values[k] * scale
        for key, value in snap["counters"].items():
            counters[key] += value * scale
    return stats, counters


def _exact(x: float):
    return int(round(x)) if abs(x - round(x)) < 1e-9 else x


def layer_metrics(setup: dict, passes: dict, n_passes: int) -> dict:
    """Every per-layer metric: one set-up plus the mean of one pass."""
    stats, counters = _combined(setup, passes, n_passes)

    def calls(name):
        return _exact(sum(v[0] for (n, _), v in stats.items() if n == name))

    def total(name):  # outermost spans only, so nested calls are not counted twice
        return sum(v[1] for (n, p), v in stats.items() if n == name and p != name)

    def own(name):
        return sum(v[2] for (n, _), v in stats.items() if n == name)

    def ratio(a, b):  # 12 digits: the order of float sums over passes must not show
        return float(f"{counters[a] / counters[b]:.12g}") if counters[b] else 0.0

    lookups = calls("music.ngram.pmf_lookup")
    misses = calls("music.ngram.raw_pmf")
    values = {
        "rng.stream_calls": (calls("rng.stream"), "count"),
        "rng.stream_s": (total("rng.stream"), "s"),
        "rng.run_seed_s": (total("rng.run_seed"), "s"),
        "models.gap_distribution_calls": (calls("models.gap_distribution"), "count"),
        "models.gap_distribution_s": (total("models.gap_distribution"), "s"),
        "models.gap_sample_calls": (calls("models.gap_sample"), "count"),
        "models.gap_sample_s": (total("models.gap_sample"), "s"),
        "models.gap_density_calls": (calls("models.gap_density"), "count"),
        "models.gap_density_s": (total("models.gap_density"), "s"),
        "models.step_log_probabilities_calls": (calls("models.step_log_probabilities"), "count"),
        "models.step_log_probabilities_s": (total("models.step_log_probabilities"), "s"),
        "smc.conditional_sample_self_s": (own("smc.conditional_sample"), "s"),
        "smc.propose_segment_calls": (calls("smc.propose_segment"), "count"),
        "smc.propose_segment_self_s": (own("smc.propose_segment"), "s"),
        "smc.barrier_weight_calls": (calls("smc.barrier_weight"), "count"),
        "smc.barrier_weight_self_s": (own("smc.barrier_weight"), "s"),
        "smc.systematic_resample_calls": (calls("smc.systematic_resample"), "count"),
        "smc.systematic_resample_s": (total("smc.systematic_resample"), "s"),
        "smc.effective_sample_size_s": (total("smc.effective_sample_size"), "s"),
        "smc.events_per_particle_barrier":
            (ratio("smc.proposed_events", "smc.filter_proposals"), "ratio"),
        "smc.distinct_ancestor_ratio": (ratio("smc.distinct_ancestors", "smc.resampled"), "ratio"),
        "smc.dead_particle_ratio": (ratio("smc.dead", "smc.barrier_particles"), "ratio"),
        "smc.ess_ratio": (ratio("smc.ess", "smc.barrier_particles"), "ratio"),
        "beam.beam_search_sample_self_s": (own("beam.beam_search_sample"), "s"),
        "music.encoding.codes_decoded": (_exact(counters["music.encoding.codes_decoded"]), "count"),
        "music.encoding.decode_s": (total("music.encoding.decode"), "s"),
        "music.ngram.pmf_lookups": (lookups, "count"),
        "music.ngram.cache_misses": (misses, "count"),
        "music.ngram.cache_hit_ratio":
            (float(f"{1.0 - misses / lookups:.12g}") if lookups else 0.0, "ratio"),
        "music.ngram.sample_symbol_s": (total("music.ngram.sample_symbol"), "s"),
        "music.ngram.train_s": (total("music.ngram.train"), "s"),
        "music.ngram.load_s": (total("music.ngram.load"), "s"),
        "music.files.write_events_calls": (calls("music.files.write_events"), "count"),
        "music.files.write_events_s": (total("music.files.write_events"), "s"),
        "music.files.read_corpus_s": (total("music.files.read_corpus"), "s"),
        "oracle.enumerate_conditional_s": (total("oracle.enumerate_conditional"), "s"),
        "cli.invocations": (calls("cli.main"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def write_trace(path: Path, tracer: Tracer, setup: dict, passes: dict, n_passes: int,
                missing: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"setup": setup, "passes": passes, "n_passes": n_passes,
                                "missing": missing, "spans": tracer.spans,
                                "spans_dropped": tracer.dropped}) + "\n")
