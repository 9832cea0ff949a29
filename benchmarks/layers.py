"""Layer timings of straightflow at fixed sizes, written to ``BENCH_<label>.json``.

Run from the repository root (the package is imported from ``src/``)::

    python benchmarks/layers.py --label main

It writes ``.benchmarks/BENCH_<label>.json`` with the machine facts (nproc,
Python, numpy, BLAS, ``STRAIGHTFLOW_THREADS``) and, per layer and table set,
the best of ``REPEATS`` timings.  Inputs are built once, outside the timed
region, and every result is consumed inside it.

Layers timed so far:

- ``csv``: ``calculus._csv_blocks``, every block drawn, on the tables the
  oracle_2d benchmark workload writes.  ``fields`` is the Gaussian oracle's
  rho, v, a, Sigma and Pi, and ``diagnose`` its four residuals (continuity,
  momentum, balance, material), on a 120² grid at t = 0.5 for the trig
  independent N(0, I) -> N(0, I) process.  ``flow`` is the rk4 trajectory
  table, 1,444 points x 101 nodes, of the affine OT flow from N(0, I) to
  N(m1, diag(4, 9)), with m1 the target mean that workload draws at seed 31.
- ``trace``: ``verify.tr_pi_moment`` on one slice at t = 0.5, seed 31
  where no seed is named.  ``lab_2d_m2048`` and ``lab_2d_m4096`` take the
  lab_2d benchmark workload's slice (the affine OT map N(0, I) ->
  N((2, -1), diag(4, 9)), n = 2e4) with the subsample sizes of ``verify
  --theorem determinism`` and ``--theorem affine``.
  ``1d_n1e5_m4096`` is the affine independent N(0, 1) -> N(0, 1) slice of
  acceptance criterion 1 (n = 1e5, m = 4096), and ``2d_n1e5_m4096`` the 2-D
  OT slice at n = 1e5, m = 4096.  ``lab_1d_geometric_seed{3,17,31}`` take
  the slice of ``verify --theorem geometric`` in the lab_1d benchmark
  workload (the trig independent N(0, 1) -> N(0, 1) process at n = 5e4 and
  t = 0.5 of its 10-step grid) at its seed, and draw the harness's 4096
  subsample rows from its stream, so the neighbour search is the harness's.
  ``lab_2d_control_m2048`` and ``lab_2d_control_m4096`` take the permuted
  control of the lab_2d slice as ``verify --theorem determinism`` (4 steps)
  and ``--theorem affine`` (``time_nodes`` [0.5]) take it: the x1 rows
  permuted by the harness's stream, the harness's subsample stream, and a
  density floor of 0, since no verdict reads the control's low-density
  fraction.  Every other row takes the CLI's default floor, 25.
- ``kernel_1d``: ``estimate.nw_regress`` in 1-D, ``n1e5_m4096``: the trig
  independent slice at n = 1e5, seed 31 and t = 0.5, the velocities
  regressed at 4096 of its own samples (drawn as the geometric harness draws
  its subsample) at half the Silverman bandwidth, the size of the 1-D kernel
  row of ROADMAP's layer table.  The row also records the query x sample
  pairs weighed (cut pairs included), counted in an untimed call.
- ``kernel_nd``: ``estimate.fields_on_grid`` in 2-D on the lab_2d benchmark
  workload's estimate (n = 2e4, t = 0.5, the 40² grid over the slice's
  quantile box) at seeds 3, 17 and 31: ``fields`` as the ``fields`` command
  takes it, and ``diagnose`` with the exact time derivatives, as the
  ``diagnose`` command takes it.  Each row also records the tracemalloc
  peak of one more untimed call.
- ``ensemble``: the ``simulate`` work, ``core.sample_endpoints`` then
  ``core.save_ensemble`` into a temporary directory, for the trig
  independent N(0, I) -> N(0, I) process at seed 31.  ``lab_1d`` is the
  lab_1d benchmark workload's size (n = 5e4, K = 11, d = 1) and
  ``2d_n1e5_k21`` a 2-D ensemble at n = 1e5, K = 21.  Each row also records
  the file's size and the tracemalloc peak of one more untimed run.
- ``kernel_flow``: the whole ``flow`` command through ``cli.main`` with the
  kernel velocity oracle (``source: estimate``) on the lab_2d benchmark
  workload's config (n = 2e4, ``time_steps`` 4), 20 start points from mu0,
  rk4 x 20 and the default one-step reference cap, at seeds 3, 17 and 29.
  Each row also records the reference run's step count and the failed
  points.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from straightflow import calculus, cli, core, estimate, flow, verify  # noqa: E402

REPEATS = 5

_STD2 = {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_TRIG_2D_PROCESS = {"coefficients": "trig", "dim": 2, "coupling": {
    "kind": "independent", "mu0": _STD2, "mu1": _STD2}}
_FIELDS_CONFIG = {
    "process": _TRIG_2D_PROCESS,
    "n": 1, "seed": 31, "source": "oracle", "time": 0.5, "grid": {"nodes_per_axis": 120},
}
_FLOW_CONFIG = {
    "process": {"coefficients": "affine", "dim": 2, "coupling": {
        "kind": "deterministic_map", "mu0": _STD2, "map": "ot",
        "mu1": {"family": "gaussian", "mean": [1.612399, -1.107163],
                "cov": [[4.0, 0.0], [0.0, 9.0]]}}},
    "n": 1, "seed": 31, "source": "oracle", "grid": {"nodes_per_axis": 40},
    "flow": {"scheme": "rk4", "steps": 100},
}


_STD1 = {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}
_LAB_2D_PROCESS = {"coefficients": "affine", "dim": 2, "coupling": {
    "kind": "deterministic_map", "mu0": _STD2, "map": "ot",
    "mu1": {"family": "gaussian", "mean": [2.0, -1.0], "cov": [[4.0, 0.0], [0.0, 9.0]]}}}
_INDEP_1D_PROCESS = {"coefficients": "affine", "dim": 1, "coupling": {
    "kind": "independent", "mu0": _STD1, "mu1": _STD1}}
# name -> (process, n, subsample size m)
_TRACE_SLICES = {
    "lab_2d_m2048": (_LAB_2D_PROCESS, 20_000, 2048),
    "lab_2d_m4096": (_LAB_2D_PROCESS, 20_000, 4096),
    "1d_n1e5_m4096": (_INDEP_1D_PROCESS, 100_000, 4096),
    "2d_n1e5_m4096": (_LAB_2D_PROCESS, 100_000, 4096),
}
_TRACE_SEED = 31
_TRACE_TIME = 0.5
_TRIG_1D_PROCESS = {"coefficients": "trig", "dim": 1, "coupling": {
    "kind": "independent", "mu0": _STD1, "mu1": _STD1}}
# name -> (x1 permutation tag, subsample size m, subsample stream tag) of a
# harness's permuted control on the lab_2d slice at t = 0.5
_CONTROL_TRACE = {
    "lab_2d_control_m2048": (2, 2048, 302),
    "lab_2d_control_m4096": (1, 4096, 100),
}
# the CLI's default, which every row but the controls takes
_DENSITY_FLOOR = 25.0
# name -> (n, seed) of the geometric harness's trace call
_GEOMETRIC_TRACE = {
    "lab_1d_geometric_seed3": (50_000, 3),
    "lab_1d_geometric_seed17": (50_000, 17),
    "lab_1d_geometric_seed31": (50_000, 31),
}
# name -> (n, seed) of a 1-D kernel call on the geometric harness's slice
_KERNEL_1D = {"n1e5_m4096": (100_000, 31)}
# name -> (process, n, time_steps) of the simulate work
_ENSEMBLE = {
    "lab_1d": (_TRIG_1D_PROCESS, 50_000, 10),
    "2d_n1e5_k21": (_TRIG_2D_PROCESS, 100_000, 20),
}
_ENSEMBLE_SEED = 31
_KERNEL_ND_SEEDS = (3, 17, 31)
_KERNEL_FLOW_SEEDS = (3, 17, 29)


def time_runs(fn) -> list:
    """Wall times of ``REPEATS`` calls of ``fn``, which consumes its result."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return runs


def _config(data: dict) -> cli.ExperimentConfig:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        return cli.load_config(path)


def _grid_table(grid: calculus.SpatialGrid, values: np.ndarray):
    """The lead and values ``grid_field_to_csv`` hands the writer."""
    lead = [[repr(x) for x in ax.tolist()] for ax in grid.axes]
    return lead, values.reshape(math.prod(grid.shape), -1)


def csv_tables() -> dict:
    """The oracle_2d tables, by the command that writes them."""
    cfg = _config(_FIELDS_CONFIG)
    grid, f = cli._oracle_fields(cfg, cfg["time"], time_derivatives=True)
    fields = [_grid_table(grid, f[name]) for name in ("rho", "v", "a", "Sigma", "Pi")]
    residuals = [
        calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"]),
        calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"]),
        calculus.balance_residual(grid, f["rho"], f["Pi"], f["a"]),
        calculus.material_residual(grid, f["v"], f["dt_v"]),
    ]
    diagnose = [_grid_table(grid, rep.residual) for rep in residuals]

    cfg = _config(_FLOW_CONFIG)
    spec = cli.build_process_spec(cfg)
    oracle = flow.analytic_velocity_oracle(spec)
    sgrid = cli._resolve_spatial_grid(cfg, spec, 0.0)
    steps = cfg["flow"]["steps"]
    result = flow.flow_map(oracle, sgrid.interior_points(), steps, "rk4")
    lead = [[str(i) for i in result.kept], [repr(x) for x in core.time_nodes(steps).tolist()]]
    trajectories = [(lead, result.states[result.kept].reshape(-1, spec.dim))]
    return {"fields": fields, "diagnose": diagnose, "flow": trajectories}


def write_csv(lead, values) -> int:
    """Draw every block of one table; returns its size in characters."""
    return sum(len(block) for block in calculus._csv_blocks(lead, values))


def time_csv(tables: dict) -> dict:
    out = {}
    for name, group in tables.items():
        sizes = []
        runs = time_runs(lambda: sizes.append(sum(write_csv(*table) for table in group)))
        out[name] = {
            "tables": len(group),
            "rows": sum(values.shape[0] for _, values in group),
            "cells": sum(values.size for _, values in group),
            "chars": sizes[-1],
            "best_s": min(runs),
            "runs_s": runs,
        }
    return out


def trace_slices() -> dict:
    """(X, V, m, stream) of each ``_TRACE_SLICES`` entry: the arguments of
    ``verify.tr_pi_moment``, which draws its subsample of m rows from the
    (seed, tag) stream."""
    out = {}
    for name, (process, n, m) in _TRACE_SLICES.items():
        spec = cli.build_process_spec(_config({"process": process, "n": n, "seed": _TRACE_SEED}))
        X, V, _ = core.slice_state(spec, core.sample_endpoints(spec, n, _TRACE_SEED), _TRACE_TIME)
        out[name] = (X, V, m, (_TRACE_SEED, 5))
    return out


def control_slices(n: int = 20_000, seed: int = _TRACE_SEED) -> dict:
    """(X, V, m, stream) of each ``_CONTROL_TRACE`` entry: the permuted
    control of the lab_2d process at n and seed, sliced at t = 0.5, as the
    trace harnesses hand it to ``verify.tr_pi_moment`` (with a floor of 0)."""
    spec = cli.build_process_spec(_config({"process": _LAB_2D_PROCESS, "n": n, "seed": seed}))
    endpoints = core.sample_endpoints(spec, n, seed)
    out = {}
    for name, (perm, m, tag) in _CONTROL_TRACE.items():
        X, V, _ = core.slice_state(spec, verify._permuted_control(endpoints, perm), _TRACE_TIME)
        out[name] = (X, V, m, (seed, tag))
    return out


def geometric_slices(sizes: dict = _GEOMETRIC_TRACE) -> dict:
    """(X, V, m, stream) of each entry (n, seed) of ``sizes``: the slice of
    ``verify --theorem geometric`` on the trig independent process at t = 0.5
    of a 10-step time grid, with the size of its subsample and the stream
    the harness draws it from."""
    steps = 10
    t_index = cli._node_index(0.5, steps)
    out = {}
    for name, (n, seed) in sizes.items():
        spec = cli.build_process_spec(_config({"process": _TRIG_1D_PROCESS, "n": n, "seed": seed}))
        X, V, _ = core.slice_state(spec, core.sample_endpoints(spec, n, seed),
                                   float(core.time_nodes(steps)[t_index]))
        out[name] = (X, V, min(verify._DEFAULT_M_EVAL, n), (seed, 200 + t_index))
    return out


def time_trace(slices: dict, density_floor: float = _DENSITY_FLOOR) -> dict:
    out = {}
    for name, (X, V, m, stream) in slices.items():
        moments = []
        runs = time_runs(lambda: moments.append(
            verify.tr_pi_moment(X, V, core.aux_rng(*stream), m, density_floor)))
        out[name] = {
            "n": X.shape[0],
            "d": X.shape[1],
            "m": m,
            "tr_pi": moments[-1].value,
            "low_density_fraction": moments[-1].low_density_fraction,
            "best_s": min(runs),
            "runs_s": runs,
        }
    return out


def kernel_1d_calls() -> dict:
    """(X, V, queries, h) of each ``_KERNEL_1D`` entry: the geometric
    harness's slice regressed at its subsample, at half the Silverman
    bandwidth."""
    out = {}
    for name, (X, V, m, stream) in geometric_slices(_KERNEL_1D).items():
        rows = core.aux_rng(*stream).choice(X.shape[0], size=m, replace=False)
        h = estimate.silverman_bandwidth_from(X) * verify._TRACE_BANDWIDTH_FACTOR
        out[name] = (X, V, X[rows], h)
    return out


def kernel_pairs(X, V, points, h) -> int:
    """Query x sample pairs one ``nw_regress`` call weighs (``_weights``,
    cut pairs included)."""
    pairs, weights = [0], estimate._weights

    def counted_weights(q, cols, *args, **kwargs):
        pairs[0] += q.shape[0] * cols.shape[1]
        return weights(q, cols, *args, **kwargs)

    with mock.patch.object(estimate, "_weights", counted_weights):
        estimate.nw_regress(X, V, points, h)
    return pairs[0]


def time_kernel_1d(calls: dict) -> dict:
    out = {}
    for name, (X, V, points, h) in calls.items():
        runs = time_runs(lambda: estimate.nw_regress(X, V, points, h)[1].sum())
        out[name] = {
            "n": X.shape[0],
            "m": points.shape[0],
            "h": h,
            "pairs": kernel_pairs(X, V, points, h),
            "best_s": min(runs),
            "runs_s": runs,
        }
    return out


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernel_nd_calls(seeds=_KERNEL_ND_SEEDS, n: int = 20_000, nodes: int = 40) -> dict:
    """(X, V, A, grid, kernel config) of the lab_2d workload's estimate at
    t = 0.5 (n samples, ``nodes`` per grid axis), per seed of ``seeds``."""
    out = {}
    for seed in seeds:
        cfg = _config({"process": _LAB_2D_PROCESS, "n": n, "seed": seed,
                       "grid": {"nodes_per_axis": nodes}})
        spec = cli.build_process_spec(cfg)
        X, V, A = core.slice_state(spec, core.sample_endpoints(spec, cfg["n"], seed), 0.5)
        grid = cli._resolve_spatial_grid(cfg, spec, 0.5, sample=X)
        out[f"lab_2d_seed{seed}"] = (X, V, A, grid, cli._kernel_config(cfg))
    return out


def time_kernel_nd(calls: dict) -> dict:
    out = {}
    for name, (X, V, A, grid, cfg) in calls.items():
        for command, derivatives in (("fields", False), ("diagnose", True)):
            def call():
                return estimate.fields_on_grid(X, V, A, grid, cfg, derivatives)["rho"].sum()

            runs = time_runs(call)
            out[f"{name}.{command}"] = {
                "n": X.shape[0],
                "nodes": math.prod(grid.shape),
                "peak_traced_mb": traced_peak_mb(call),
                "best_s": min(runs),
                "runs_s": runs,
            }
    return out


def time_ensemble(sizes: dict = _ENSEMBLE) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (process, n, steps) in sizes.items():
            spec = cli.build_process_spec(_config({"process": process, "n": n,
                                                   "seed": _ENSEMBLE_SEED}))
            path = Path(tmp) / "ensemble.sflw"

            def simulate():
                endpoints = core.sample_endpoints(spec, n, _ENSEMBLE_SEED)
                core.save_ensemble(spec, path, endpoints, steps)

            runs = time_runs(simulate)
            peak = traced_peak_mb(simulate)
            out[name] = {
                "n": n,
                "k": steps + 1,
                "d": spec.dim,
                "bytes": path.stat().st_size,
                "peak_traced_mb": peak,
                "best_s": min(runs),
                "runs_s": runs,
            }
    return out


def time_kernel_flow() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in _KERNEL_FLOW_SEEDS:
            path, result = Path(tmp) / f"seed{seed}.json", Path(tmp) / f"out{seed}"
            path.write_text(json.dumps({
                "process": _LAB_2D_PROCESS, "n": 20_000, "seed": seed, "time_steps": 4,
                "source": "estimate", "flow": {"steps": 20, "n_points": 20},
                "output_dir": str(result),
            }))
            codes = []
            with contextlib.redirect_stdout(io.StringIO()):
                runs = time_runs(lambda: codes.append(cli.main(["flow", "--config", str(path)])))
            summary = json.loads((result / "straightness.json").read_text())
            out[f"seed{seed}"] = {
                "exit": codes[-1],
                "reference_steps_used": summary["one_step"]["reference_steps_used"],
                "n_failed": summary["n_failed"],
                "best_s": min(runs),
                "runs_s": runs,
            }
    return out


def machine_facts() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "STRAIGHTFLOW_THREADS": os.environ.get("STRAIGHTFLOW_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    args = parser.parse_args(argv)
    report = {
        "label": args.label,
        "machine": machine_facts(),
        "repeats": REPEATS,
        "layers": {"csv": time_csv(csv_tables()),
                   "trace": {**time_trace({**trace_slices(), **geometric_slices()}),
                             **time_trace(control_slices(), 0.0)},
                   "kernel_1d": time_kernel_1d(kernel_1d_calls()),
                   "kernel_nd": time_kernel_nd(kernel_nd_calls()),
                   "ensemble": time_ensemble(),
                   "kernel_flow": time_kernel_flow()},
    }
    path = ROOT / ".benchmarks" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    for name, row in report["layers"]["csv"].items():
        print(f"csv.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"({row['tables']} tables, {row['cells']} cells, {row['chars']} chars)")
    for name, row in report["layers"]["trace"].items():
        print(f"trace.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"(n={row['n']}, d={row['d']}, m={row['m']}, tr_pi={row['tr_pi']:.6g}, "
              f"low-density {row['low_density_fraction']:.4f})")
    for name, row in report["layers"]["kernel_1d"].items():
        print(f"kernel_1d.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"(n={row['n']}, m={row['m']}, {row['pairs']} pairs)")
    for name, row in report["layers"]["kernel_nd"].items():
        print(f"kernel_nd.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"(n={row['n']}, {row['nodes']} nodes, "
              f"traced peak {row['peak_traced_mb']:.2f} MB)")
    for name, row in report["layers"]["ensemble"].items():
        print(f"ensemble.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"(n={row['n']}, K={row['k']}, d={row['d']}, {row['bytes']} bytes, "
              f"traced peak {row['peak_traced_mb']:.1f} MB)")
    for name, row in report["layers"]["kernel_flow"].items():
        print(f"kernel_flow.{name}: {row['best_s']:.4f} s best of {REPEATS} "
              f"(exit {row['exit']}, reference steps {row['reference_steps_used']}, "
              f"{row['n_failed']} failed)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
