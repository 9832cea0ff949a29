"""In-memory span tracing around the public functions of the straightflow modules.

:func:`instrument` wraps every public module-level function of the package's
modules so that each call records a span (name, start, end, parent) and, for
a few functions, counts taken from the arguments and return values.
From-import aliases (``verify.sample_endpoints``, ``flow.velocity_at``, ...)
are bound to the same wrappers, so no call escapes its span.  Velocity
oracles returned by ``flow.*_velocity_oracle`` get a wrapped evaluator
(span ``flow.oracle``).

Spans stay in memory; :func:`layer_metrics` turns one sequence's spans into
the per-layer metrics.  Self time is a span's duration minus the durations
of its direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("core", "estimate", "gaussian", "calculus", "flow", "verify", "cli")

HARNESSES = ("verify.affine_straightness_check", "verify.geometric_report",
             "verify.determinism_detector")

# Per-layer metrics: name -> unit.  Times are self times in seconds, summed
# over one command sequence; counts are per sequence.
LAYER_METRICS = {
    "core.sample_endpoints.self_s": "s",
    "core.sample_endpoints.calls": "count",
    "core.paths_drawn": "count",
    "core.slice_state.self_s": "s",
    "core.save_ensemble.self_s": "s",
    "core.ensemble_bytes": "bytes",
    "estimate.nw_regress_1d.self_s": "s",
    "estimate.nw_regress_nd.self_s": "s",
    "estimate.nw_regress.calls": "count",
    "estimate.query_points": "count",
    "estimate.kernel_pairs": "count",
    "estimate.pairs_per_s": "1/s",
    "estimate.points_per_call": "count",
    "estimate.low_density_frac": "frac",
    "estimate.fields_on_grid.self_s": "s",
    "gaussian.self_s": "s",
    "gaussian.calls": "count",
    "calculus.residuals.self_s": "s",
    "calculus.grid_field_to_csv.self_s": "s",
    "calculus.csv_bytes": "bytes",
    "flow.integrate.self_s": "s",
    "flow.integrate_many.self_s": "s",
    "flow.straightness_deviation.self_s": "s",
    "flow.oracle_calls": "count",
    "flow.oracle_points": "count",
    "flow.oracle.self_s": "s",
    "flow.points_failed": "count",
    "flow.excursions": "count",
    "verify.tr_pi_moment.self_s": "s",
    "verify.tr_pi_moment.calls": "count",
    "verify.harness.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.self_s": "s",
    "cli.result_bytes": "bytes",
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _kernel_span_name(args, kwargs):
    X = _first_arg(args, kwargs, "X")
    return "estimate.nw_regress_1d" if X.shape[1] == 1 else "estimate.nw_regress_nd"


class Tracer:
    """Span stack and counters for one child process."""

    def __init__(self, density_floor: float):
        self.density_floor = density_floor
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.oracles: list = []

    def wrap(self, name: str, fn, span_name=None, after=None):
        """``fn`` recording a span per call; ``after`` takes counts from the
        arguments and the return value.  The bookkeeping is inlined to keep
        the per-call cost to a few microseconds."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name(args, kwargs) if span_name else name, 0.0, 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def collect_oracle_stats(self) -> None:
        """Fold the excursion counters of the oracles built since the last call."""
        for oracle in self.oracles:
            self.counts["flow.excursions"] += oracle.stats.excursions
        self.oracles.clear()


# -- counters taken from arguments and return values --------------------------

def _after_sample_endpoints(tr, args, kwargs, result):
    tr.counts["core.paths_drawn"] += int(result.x0.shape[0])


def _after_save_ensemble(tr, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["core.ensemble_bytes"] += os.stat(path).st_size


def _after_nw_regress(tr, args, kwargs, result):
    import numpy as np

    X = _first_arg(args, kwargs, "X")
    points = args[2] if len(args) > 2 else kwargs["points"]
    m = int(np.atleast_2d(points).shape[0])
    tr.counts["estimate.query_points"] += m
    tr.counts["estimate.kernel_pairs"] += int(X.shape[0]) * m
    tr.counts["estimate.low_density"] += int(np.sum(result[1] < tr.density_floor))


def _after_grid_field_to_csv(tr, args, kwargs, result):
    tr.counts["calculus.csv_bytes"] += len(result.encode())


def _after_flow_map(tr, args, kwargs, result):
    tr.counts["flow.points_failed"] += len(result.errors)


def _after_oracle_eval(tr, args, kwargs, result):
    import numpy as np

    tr.counts["flow.oracle_calls"] += 1
    tr.counts["flow.oracle_points"] += int(np.atleast_2d(args[1]).shape[0])


_AFTER = {
    "core.sample_endpoints": _after_sample_endpoints,
    "core.save_ensemble": _after_save_ensemble,
    "estimate.nw_regress": _after_nw_regress,
    "calculus.grid_field_to_csv": _after_grid_field_to_csv,
    "flow.flow_map": _after_flow_map,
}


def instrument(tracer: Tracer, package) -> int:
    """Replace every public function of the package's modules, and every
    from-import alias of one, by its traced wrapper.  Returns the number of
    module attributes rebound."""
    modules = [getattr(package, name) for name in MODULES]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue  # a from-import alias; bound below
            name = f"{short}.{attr}"
            if name.endswith("_velocity_oracle"):
                wrapped[obj] = _oracle_factory_wrapper(tracer, name, obj)
            else:
                wrapped[obj] = tracer.wrap(
                    name, obj,
                    span_name=_kernel_span_name if name == "estimate.nw_regress" else None,
                    after=_AFTER.get(name),
                )
    rebound = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
                rebound += 1
    return rebound


def _oracle_factory_wrapper(tracer: Tracer, name: str, fn):
    """Trace the factory and give the VelocityOracle it returns a traced
    evaluator (span ``flow.oracle``), keeping the oracle's stats object."""
    traced_factory = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        oracle = traced_factory(*args, **kwargs)
        traced = dataclasses.replace(
            oracle, evaluate=tracer.wrap("flow.oracle", oracle.evaluate, after=_after_oracle_eval)
        )
        tracer.oracles.append(traced)
        return traced

    return wrapper


# -- derivation ---------------------------------------------------------------

def span_table(spans, by_root: bool = False) -> dict:
    """name -> [self seconds, calls] over a list of spans.  With ``by_root``
    the key is ``"<root span> <name>"``, attributing self time to the
    command (root span) it ran under."""
    self_s = [s[2] - s[1] for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
            root[i] = root[s[3]]  # parents precede their children
    table: dict = defaultdict(lambda: [0.0, 0])
    for i, (s, own) in enumerate(zip(spans, self_s)):
        key = f"{spans[root[i]][0]} {s[0]}" if by_root else s[0]
        table[key][0] += own
        table[key][1] += 1
    return dict(table)


def layer_metrics(tracer: Tracer, result_bytes: int) -> dict:
    """The per-layer metrics of one traced command sequence."""
    table = span_table(tracer.spans)
    c = tracer.counts

    def self_of(*names):
        return sum(table.get(n, (0.0, 0))[0] for n in names)

    def calls_of(*names):
        return sum(table.get(n, (0.0, 0))[1] for n in names)

    def prefixed(prefix, exclude=()):
        return [n for n in table if n.startswith(prefix) and n not in exclude]

    kernel_s = self_of("estimate.nw_regress_1d", "estimate.nw_regress_nd")
    kernel_calls = calls_of("estimate.nw_regress_1d", "estimate.nw_regress_nd")
    gaussian = prefixed("gaussian.")
    return {
        "core.sample_endpoints.self_s": self_of("core.sample_endpoints"),
        "core.sample_endpoints.calls": calls_of("core.sample_endpoints"),
        "core.paths_drawn": c["core.paths_drawn"],
        "core.slice_state.self_s": self_of("core.slice_state"),
        "core.save_ensemble.self_s": self_of("core.save_ensemble"),
        "core.ensemble_bytes": c["core.ensemble_bytes"],
        "estimate.nw_regress_1d.self_s": self_of("estimate.nw_regress_1d"),
        "estimate.nw_regress_nd.self_s": self_of("estimate.nw_regress_nd"),
        "estimate.nw_regress.calls": kernel_calls,
        "estimate.query_points": c["estimate.query_points"],
        "estimate.kernel_pairs": c["estimate.kernel_pairs"],
        "estimate.pairs_per_s": c["estimate.kernel_pairs"] / kernel_s if kernel_s > 0 else 0.0,
        "estimate.points_per_call": (
            c["estimate.query_points"] / kernel_calls if kernel_calls else 0.0
        ),
        "estimate.low_density_frac": (
            c["estimate.low_density"] / c["estimate.query_points"]
            if c["estimate.query_points"] else 0.0
        ),
        "estimate.fields_on_grid.self_s": self_of("estimate.fields_on_grid"),
        "gaussian.self_s": self_of(*gaussian),
        "gaussian.calls": calls_of(*gaussian),
        "calculus.residuals.self_s": self_of(
            *prefixed("calculus.", exclude=("calculus.grid_field_to_csv",))
        ),
        "calculus.grid_field_to_csv.self_s": self_of("calculus.grid_field_to_csv"),
        "calculus.csv_bytes": c["calculus.csv_bytes"],
        "flow.integrate.self_s": self_of("flow.integrate"),
        "flow.integrate_many.self_s": self_of("flow.integrate_many"),
        "flow.straightness_deviation.self_s": self_of("flow.straightness_deviation"),
        "flow.oracle_calls": c["flow.oracle_calls"],
        "flow.oracle_points": c["flow.oracle_points"],
        "flow.oracle.self_s": self_of("flow.oracle"),
        "flow.points_failed": c["flow.points_failed"],
        "flow.excursions": c["flow.excursions"],
        "verify.tr_pi_moment.self_s": self_of("verify.tr_pi_moment"),
        "verify.tr_pi_moment.calls": calls_of("verify.tr_pi_moment"),
        "verify.harness.self_s": self_of(*HARNESSES),
        "cli.load_config.self_s": self_of("cli.load_config"),
        "cli.self_s": self_of(*prefixed("cli.", exclude=("cli.load_config",))),
        "cli.result_bytes": result_bytes,
    }
