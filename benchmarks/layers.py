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
- ``trace``: ``verify.tr_pi_moment`` on one slice at t = 0.5, seed 31.
  ``lab_2d_m2048`` and ``lab_2d_m4096`` take the lab_2d benchmark
  workload's slice (the affine OT map N(0, I) -> N((2, -1), diag(4, 9)),
  n = 2e4) with the subsample sizes of ``verify --theorem determinism`` and
  ``--theorem affine``.  ``1d_n1e5_m4096`` is the affine independent
  N(0, 1) -> N(0, 1) slice of acceptance criterion 1 (n = 1e5, m = 4096),
  and ``2d_n1e5_m4096`` the 2-D OT slice at n = 1e5, m = 4096.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from straightflow import calculus, cli, core, flow, gaussian, verify  # noqa: E402

REPEATS = 5

_STD2 = {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
_FIELDS_CONFIG = {
    "process": {"coefficients": "trig", "dim": 2,
                "coupling": {"kind": "independent", "mu0": _STD2, "mu1": _STD2}},
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


def _grid_table(field: calculus.GridField):
    """The lead and values ``grid_field_to_csv`` hands the writer."""
    lead = [[repr(x) for x in ax.tolist()] for ax in field.grid.axes]
    return lead, field.values.reshape(field.grid.mask.size, -1)


def csv_tables() -> dict:
    """The oracle_2d tables, by the command that writes them."""
    cfg = _config(_FIELDS_CONFIG)
    t, h_t = cfg["time"], cfg["h_t"]["analytic"]
    fields_at = cli._oracle_fields(cfg, t)
    f_m, f, f_p = (fields_at(tt) for tt in (t - h_t, t, t + h_t))
    fields = [_grid_table(f[name]) for name in ("rho", "v", "a", "Sigma", "Pi")]
    f.update(calculus.central_time_derivatives(f_m, f, f_p, h_t))
    residuals = [
        calculus.continuity_residual(f["rho"], f["v"], f["dt_rho"]),
        calculus.momentum_residual(f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"]),
        calculus.balance_residual(f["rho"], f["Pi"], f["a"]),
        calculus.material_residual(f["v"], f["dt_v"]),
    ]
    diagnose = [_grid_table(rep.residual) for rep in residuals]

    cfg = _config(_FLOW_CONFIG)
    spec = cli.build_process_spec(cfg)
    oracle = flow.analytic_velocity_oracle(gaussian.from_process_spec(spec))
    sgrid = cli._resolve_spatial_grid(cfg, spec, 0.0)
    tgrid = core.make_time_grid(cfg["flow"]["steps"])
    result = flow.flow_map(oracle, sgrid.points()[sgrid.mask.ravel()], tgrid, "rk4")
    lead = [[str(i) for i in result.kept], [repr(x) for x in tgrid.nodes.tolist()]]
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
    """(X, V, m) of each ``_TRACE_SLICES`` entry."""
    out = {}
    for name, (process, n, m) in _TRACE_SLICES.items():
        spec = cli.build_process_spec(_config({"process": process, "n": n, "seed": _TRACE_SEED}))
        X, V, _ = core.slice_state(spec, core.sample_endpoints(spec, n, _TRACE_SEED), _TRACE_TIME)
        out[name] = (X, V, m)
    return out


def time_trace(slices: dict) -> dict:
    out = {}
    for name, (X, V, m) in slices.items():
        moments = []
        runs = time_runs(lambda: moments.append(
            verify.tr_pi_moment(X, V, core.aux_rng(_TRACE_SEED, 5), m_eval=m)))
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
        "layers": {"csv": time_csv(csv_tables()), "trace": time_trace(trace_slices())},
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
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
