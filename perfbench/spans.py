"""Spans and counts around the library's layers, for the traced run.

``install`` wraps public functions and methods of ``shufflemix`` in the
current process with spans (name, start, end, parent) and counters, and
returns a function that restores the originals. The package source is not
changed; only the traced process is patched. ``layer_metrics`` turns one
traced pass into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import workloads

RULES = ("top", "random", "cyclic")
MC_FUNCTIONS = (
    "couple_k_decks",
    "couple_one_card",
    "couple_two_hands_random",
    "mc_tv_plugin",
    "tv_lower_bound_fixed_cards",
    "left_hand_hit_count",
)
CURVE_FUNCTIONS = (
    "worst_case_curve",
    "exact_tv_curve",
    "partial_mixing_time",
    "cutoff_profile",
)


def _per_layer() -> tuple:
    names = [
        ("indexing.build_s", "s"),
        ("indexing.rows", "count"),
        ("indexing.states", "count"),
        ("indexing.encode_s", "s"),
        ("indexing.encode_rows", "count"),
        ("exact.kernel_build_s", "s"),
        ("exact.kernel_nnz", "count"),
        *((f"exact.step_ms.{rule}", "ms") for rule in RULES),
        ("exact.step_calls", "count"),
        *((f"exact.evolve_ms.{rule}", "ms") for rule in RULES),
        ("exact.column_steps", "count"),
        ("exact.state_steps", "count"),
        ("exact.curve_self_s", "s"),
    ]
    for fn in MC_FUNCTIONS:
        names += [
            (f"montecarlo.{fn}.s", "s"),
            (f"montecarlo.{fn}.trial_steps", "count"),
            (f"montecarlo.{fn}.ns_per_trial_step", "ns"),
        ]
    names += [
        ("rng.substreams", "count"),
        ("rng.substream_s", "s"),
        ("cyclic.fit_s", "s"),
        ("cyclic.optimize_s", "s"),
        ("cli.dispatch_self_s", "s"),
        ("cli.write_s", "s"),
        ("cli.files_written", "count"),
        ("cli.bytes_written", "bytes"),
        *((f"cli.job_s.{job}", "s") for job in workloads.job_names()),
        ("proc.cpu_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.spans", "count"),
    ]
    return tuple(names)


# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = _per_layer()
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


class Tracer:
    """Spans kept in memory, plus counters in total and per job."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.job_counts = defaultdict(Counter)
        self.job = None
        self._stack = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: int):
        self.counts[key] += value
        if self.job is not None:
            self.job_counts[self.job][key] += value


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass (all but proc.cpu_s and
    trace.overhead_s, which need the untraced passes too)."""
    selfs = self_times(spans)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for (name, start, end, _), self_s in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_s
        calls[name] += 1
    # a first kernel build happens inside an evolve call; report it apart
    build_in = defaultdict(float)
    for name, start, end, parent in spans:
        if name == "exact.kernel_build" and parent >= 0:
            build_in[spans[parent][0]] += end - start

    def per_call_ms(name):
        if not calls[name]:
            return 0.0
        return 1e3 * (total[name] - build_in[name]) / calls[name]

    m = {
        "indexing.build_s": total["indexing.build"],
        "indexing.encode_s": total["indexing.encode"],
        "exact.kernel_build_s": total["exact.kernel_build"],
        "exact.curve_self_s": own["exact.curve"],
        "rng.substream_s": total["rng.substream"],
        "cyclic.fit_s": total["cyclic.fit"],
        "cyclic.optimize_s": total["cyclic.optimize"],
        "cli.dispatch_self_s": own["cli.dispatch"],
        "cli.write_s": total["cli.write"],
        "trace.wall_s": total["pass"],
        "trace.self_sum_s": sum(s for (n, *_), s in zip(spans, selfs) if n != "pass"),
        "trace.spans": len(spans),
    }
    for rule in RULES:
        m[f"exact.step_ms.{rule}"] = per_call_ms(f"exact.step.{rule}")
        m[f"exact.evolve_ms.{rule}"] = per_call_ms(f"exact.evolve.{rule}")
    for fn in MC_FUNCTIONS:
        seconds = total[f"montecarlo.{fn}"]
        steps = counts.get(f"montecarlo.{fn}.trial_steps", 0)
        m[f"montecarlo.{fn}.s"] = seconds
        m[f"montecarlo.{fn}.ns_per_trial_step"] = 1e9 * seconds / steps if steps else 0.0
    for job in workloads.job_names():
        m[f"cli.job_s.{job}"] = total[f"job.{job}"]
    for name in COUNT_METRICS:
        m.setdefault(name, int(counts.get(name, 0)))
    return m


# -- patching ------------------------------------------------------------------


def _mc_trial_steps(fn: str, args: dict, result) -> int:
    """Trial-steps simulated by one Monte Carlo call."""
    if fn == "couple_k_decks":
        # a trial is simulated up to its mismatch step, or to the horizon
        times = result.mismatch_times
        horizon = result.params.horizon
        return int(times[times >= 0].sum()) + horizon * int((times < 0).sum())
    if fn in ("couple_one_card", "couple_two_hands_random"):
        return result.trials * result.horizon
    trials = args["trials"] if "trials" in args else args["samples"]
    return trials * args["t"]


def install(tracer: Tracer):
    """Wrap the library's layers with spans and counters; return an undo."""
    from shufflemix import cli, cyclic, exact, indexing, montecarlo, rng

    undo = []

    def replace_function(orig, wrapper):
        # the CLI and other modules hold their own references to imported names
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "shufflemix" or name.startswith("shufflemix.")
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))

    def replace_method(cls, attr, wrapper):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def spanned(name_of, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name_of(args) if callable(name_of) else name_of)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def rule_of(args):
        return args[0].rule.kind.value

    # indexing
    Indexer = indexing.KTupleIndexer
    replace_method(
        Indexer,
        "__post_init__",
        spanned(
            "indexing.build",
            Indexer.__post_init__,
            lambda a, kw, r: tracer.add("indexing.states", a[0].count),
        ),
    )
    all_positions0 = Indexer.all_positions0

    def built_positions0(self):
        if self._all_pos0 is not None:
            return all_positions0(self)
        index = tracer.begin("indexing.build")
        try:
            out = all_positions0(self)
        finally:
            tracer.end(index)
        tracer.add("indexing.rows", self.count)
        return out

    replace_method(Indexer, "all_positions0", built_positions0)
    replace_method(
        Indexer,
        "encode_many",
        spanned(
            "indexing.encode",
            Indexer.encode_many,
            lambda a, kw, r: tracer.add("indexing.encode_rows", int(a[1].shape[0])),
        ),
    )

    # exact
    Evolver = exact.LumpedEvolver
    step_matrix_T = Evolver.step_matrix_T

    def built_step_matrix(self, t):
        if self._matrix_key(t) in self._step_matrices:
            return step_matrix_T(self, t)
        index = tracer.begin("exact.kernel_build")
        try:
            mat = step_matrix_T(self, t)
        finally:
            tracer.end(index)
        tracer.add("exact.kernel_nnz", int(mat.nnz))
        return mat

    def counted_step(args, kwargs, result):
        tracer.add("exact.step_calls", 1)
        tracer.add("exact.state_steps", args[0].indexer.count)

    def counted_evolve(args, kwargs, result):
        columns = int(args[1].shape[1])
        tracer.add("exact.column_steps", columns)
        tracer.add("exact.state_steps", args[0].indexer.count * columns)

    replace_method(Evolver, "step_matrix_T", built_step_matrix)
    replace_method(
        Evolver,
        "step",
        spanned(lambda a: f"exact.step.{rule_of(a)}", Evolver.step, counted_step),
    )
    replace_method(
        Evolver,
        "evolve_columns",
        spanned(
            lambda a: f"exact.evolve.{rule_of(a)}",
            Evolver.evolve_columns,
            counted_evolve,
        ),
    )
    for name in CURVE_FUNCTIONS:
        orig = getattr(exact, name)
        replace_function(orig, spanned("exact.curve", orig))

    # montecarlo
    for fn in MC_FUNCTIONS:
        orig = getattr(montecarlo, fn)
        signature = inspect.signature(orig)

        def counted(args, kwargs, result, fn=fn, signature=signature):
            bound = signature.bind(*args, **kwargs).arguments
            tracer.add(f"montecarlo.{fn}.trial_steps", _mc_trial_steps(fn, bound, result))

        replace_function(orig, spanned(f"montecarlo.{fn}", orig, counted))

    # rng: substreams are used at once, so build the generator inside the span
    substream = rng.RandomStream.substream

    def timed_substream(self, index):
        span = tracer.begin("rng.substream")
        try:
            child = substream(self, index)
            child.generator
        finally:
            tracer.end(span)
        tracer.add("rng.substreams", 1)
        return child

    replace_method(rng.RandomStream, "substream", timed_substream)

    # cyclic
    replace_function(
        cyclic.fit_cyclic_bound_constant,
        spanned("cyclic.fit", cyclic.fit_cyclic_bound_constant),
    )
    replace_function(
        cyclic.optimize_epsilon, spanned("cyclic.optimize", cyclic.optimize_epsilon)
    )

    # cli
    def counted_data(args, kwargs, result):
        tracer.add("cli.files_written", 1)
        tracer.add("cli.bytes_written", os.path.getsize(args[0]))

    def counted_sidecar(args, kwargs, result):
        tracer.add("cli.files_written", 1)

    replace_function(cli.dispatch, spanned("cli.dispatch", cli.dispatch))
    replace_function(exact.write_csv, spanned("cli.write", exact.write_csv, counted_data))
    replace_function(cli._write_json, spanned("cli.write", cli._write_json, counted_data))
    replace_function(
        exact.write_sidecar, spanned("cli.write", exact.write_sidecar, counted_sidecar)
    )

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore
