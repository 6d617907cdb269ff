"""Span tracing for the benchmark, recorded from outside the program.

``installed(tracer)`` rebinds the lminlab module attributes that callers look
up at call time (``spectrum.gram``, ``smallball.q_inf_search``, ...) to
wrappers that record one span per call, and restores them on exit.  No file
under ``src/`` changes.  A span records its name, start, end, parent, thread
and a few counts taken from the call's arguments or result.  Spans stay in
memory; ``layer_metrics`` folds them into the per-layer metrics and
``dump`` writes them out once the run is over.

A span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals, so parallel children are not counted
twice).  A span opened on a pool thread with no open span of its own takes
the innermost open span of the main thread as its parent: the sweep pool's
trials become children of the ``experiments.run_sweep`` span that waits on
them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; create it on the main thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``counts(result)`` returns the span's counts; it runs after the span
        has ended, so its cost is not charged to the span.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        done = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = counts(result) if done and counts is not None else {}
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), extra))

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# what is wrapped, and the counts each span records
# ---------------------------------------------------------------------------


def _sample_attrs(a, r):
    return {"rows": r.shape[0], "n": r.shape[1]}


def _gram_attrs(a, r):
    m = a["m"]
    return {"flops": 2 * m.N * m.n * m.n}


def _residual_attrs(a, r):
    return {"residual": r.residual}


def _projection_attrs(samples_key):
    def attrs(a, r):
        samples = a[samples_key]
        if not hasattr(samples, "shape"):  # moment_ratios' analytic path
            return {"projections": 0}
        return {"projections": samples.shape[0] * a["budget"]}

    return attrs


def _rademacher_attrs(a, r):
    return {"sign_vectors": r.draws}


def _oracle_attrs(a, r):
    inst = a["inst"]
    return {
        "tuple_sign_pairs": len(inst.probs) ** inst.N * 2**inst.N,
        "applicable": int(r.hypothesis_ok),
        "violated": int(r.verdict == "violated"),
    }


def _targets(lm):
    """(module, attribute, span name, attrs) for every traced call site.

    The span name may be a function of the call's (args, kwargs).
    """
    rad = lm.rademacher

    def rad_name(args, kwargs):
        # rademacher_linear(rows, draws, rng, method): "auto" is exact up to EXACT_MAX_N rows
        rows = args[0] if args else kwargs["rows"]
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        if method == "auto":
            method = "exact" if len(rows) <= rad.EXACT_MAX_N else "mc"
        return "rademacher." + method

    targets = [
        (lm.cli, "main", "cli.main", None),
        (lm.experiments, "run_sweep", "experiments.run_sweep", None),
        (lm.experiments, "_trial", "experiments.trial", None),
        (lm.experiments, "verify_suite", "experiments.verify_suite", None),
        (lm.spectrum, "assemble", "spectrum.assemble", None),
        (lm.spectrum, "sample_matrix", "distributions.sample_matrix", _sample_attrs),
        (lm.distributions, "sample_matrix", "distributions.sample_matrix", _sample_attrs),
        (lm.spectrum, "gram", "spectrum.gram", _gram_attrs),
        (lm.spectrum, "lambda_extremes", "spectrum.lambda_extremes", _residual_attrs),
        (lm.spectrum, "lambda_min_power", "spectrum.lambda_min_power", None),
        (lm.smallball, "q_inf_search", "smallball.q_inf_search", _projection_attrs("samples")),
        (lm.smallball, "moment_ratios", "smallball.moment_ratios", _projection_attrs("source")),
        (lm.smallball, "small_ball_curve", "smallball.small_ball_curve", _projection_attrs("samples")),
        (rad, "rademacher_linear", rad_name, _rademacher_attrs),
        (lm.empirical_process, "tiny_smallball_oracle", "empirical_process.oracle", _oracle_attrs),
    ]
    for attr in ("floor_regime", "basic_floor", "isomorphic_floor", "general_floor"):
        targets.append((lm.bounds, attr, "bounds.floor", None))
    return targets


def _wrap(tracer: Tracer, fn, name, attrs):
    """``fn`` recording a span per call; ``attrs(arguments, result)`` gives
    the span's counts from the call's bound arguments and its result."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        counts = None
        if attrs is not None:

            def counts(result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return attrs(bound.arguments, result)

        return tracer.call(span_name, fn, args, kwargs, counts)

    return traced


@contextmanager
def installed(tracer: Tracer, lm):
    """Rebind every traced attribute of the lminlab modules in ``lm``."""
    saved = []
    try:
        for module, attr, name, attrs in _targets(lm):
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, attrs))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


# (metric, unit, better) in report order; times and counts are per traced
# repetition, times summed over threads.
LAYER_METRICS = [
    ("distributions.sample_s", "s", "lower"),
    ("distributions.rows_drawn", "count", "lower"),
    ("distributions.bytes_computed", "B", "lower"),
    ("spectrum.gram_s", "s", "lower"),
    ("spectrum.eigensolve_s", "s", "lower"),
    ("spectrum.assemble_self_s", "s", "lower"),
    ("spectrum.power_s", "s", "lower"),
    ("spectrum.solves", "count", "lower"),
    ("spectrum.gram_flops_computed", "flop", "lower"),
    ("spectrum.residual_max", "1", "lower"),
    ("experiments.trial_busy_frac", "frac", "higher"),
    ("experiments.aux_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.verify_self_s", "s", "lower"),
    ("empirical_process.oracle_s", "s", "lower"),
    ("empirical_process.oracle_instances", "count", "lower"),
    ("empirical_process.tuple_sign_pairs", "count", "lower"),
    ("empirical_process.applicable", "count", "higher"),
    ("empirical_process.violated", "count", "lower"),
    ("smallball.curve_s", "s", "lower"),
    ("smallball.moment_ratios_s", "s", "lower"),
    ("smallball.search_s", "s", "lower"),
    ("smallball.projections_computed", "count", "lower"),
    ("rademacher.mc_s", "s", "lower"),
    ("rademacher.exact_s", "s", "lower"),
    ("rademacher.sign_vectors", "count", "lower"),
    ("bounds.floor_s", "s", "lower"),
    ("bounds.floor_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def layer_metrics(spans, reps: int, threads: int) -> dict[str, float]:
    """Fold the spans of ``reps`` traced repetitions into per-layer metrics
    (everything but ``trace.overhead_frac``, which needs untraced runs)."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    residual_max = 0.0
    for s in spans:
        self_s[s.name] += selfs[s.id]
        dur_s[s.name] += s.end - s.start
        calls[s.name] += 1
        for key, value in s.attrs.items():
            attr[s.name, key] += value
        if "residual" in s.attrs:
            residual_max = max(residual_max, s.attrs["residual"])

    sweep_ids = {s.id for s in spans if s.name == "experiments.run_sweep"}
    aux = sum(
        s.end - s.start
        for s in spans
        if s.parent in sweep_ids and s.name not in ("experiments.trial", "bounds.floor")
    )
    sweep_capacity = dur_s["experiments.run_sweep"] * threads
    per_rep = {
        "distributions.sample_s": self_s["distributions.sample_matrix"],
        "distributions.rows_drawn": attr["distributions.sample_matrix", "rows"],
        "distributions.bytes_computed": sum(
            s.attrs["rows"] * s.attrs["n"] * 8 for s in spans if s.name == "distributions.sample_matrix"
        ),
        "spectrum.gram_s": self_s["spectrum.gram"],
        "spectrum.eigensolve_s": self_s["spectrum.lambda_extremes"],
        "spectrum.assemble_self_s": self_s["spectrum.assemble"],
        "spectrum.power_s": self_s["spectrum.lambda_min_power"],
        "spectrum.solves": calls["spectrum.lambda_extremes"] + calls["spectrum.lambda_min_power"],
        "spectrum.gram_flops_computed": attr["spectrum.gram", "flops"],
        "experiments.aux_s": aux,
        "experiments.self_s": self_s["experiments.run_sweep"] + self_s["experiments.trial"],
        "experiments.verify_self_s": self_s["experiments.verify_suite"],
        "empirical_process.oracle_s": self_s["empirical_process.oracle"],
        "empirical_process.oracle_instances": calls["empirical_process.oracle"],
        "empirical_process.tuple_sign_pairs": attr["empirical_process.oracle", "tuple_sign_pairs"],
        "empirical_process.applicable": attr["empirical_process.oracle", "applicable"],
        "empirical_process.violated": attr["empirical_process.oracle", "violated"],
        "smallball.curve_s": self_s["smallball.small_ball_curve"],
        "smallball.moment_ratios_s": self_s["smallball.moment_ratios"],
        "smallball.search_s": self_s["smallball.q_inf_search"],
        "smallball.projections_computed": sum(
            attr[name, "projections"]
            for name in ("smallball.q_inf_search", "smallball.moment_ratios", "smallball.small_ball_curve")
        ),
        "rademacher.mc_s": self_s["rademacher.mc"],
        "rademacher.exact_s": self_s["rademacher.exact"],
        "rademacher.sign_vectors": attr["rademacher.mc", "sign_vectors"]
        + attr["rademacher.exact", "sign_vectors"],
        "bounds.floor_s": self_s["bounds.floor"],
        "bounds.floor_calls": calls["bounds.floor"],
        "cli.self_s": self_s["cli.main"],
    }
    out = {name: value / reps for name, value in per_rep.items()}
    out["spectrum.residual_max"] = residual_max
    out["experiments.trial_busy_frac"] = (
        dur_s["experiments.trial"] / sweep_capacity if sweep_capacity > 0 else 0.0
    )
    return out


def largest_self_times(spans, top: int = 5) -> list[tuple[str, float]]:
    """Span names ranked by total self time, for the run's report."""
    totals = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        totals[s.name] += selfs[s.id]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]
