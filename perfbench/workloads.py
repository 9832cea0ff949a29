"""Workload definitions: generated configs, CLI command sequences and output checks.

A workload is a list of CLI invocations over configs generated from the
benchmark seed.  The parent process (``run.py``) builds the plan and writes
the configs; the child process (``child.py``) runs the commands and calls
:func:`check_outputs` on what they wrote.  Checks return ``None`` when the
outputs are right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("lab_1d", "lab_2d", "oracle_2d")  # why each: BENCHMARK.json

DENSITY_FLOOR = 25.0  # the CLI default; every config below keeps it

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is for the
# self-test, which checks plumbing, not statistics.
SIZES = {
    "full": {
        "lab_1d_n": 50_000, "lab_1d_sweep": "10000,25000",
        "lab_2d_n": 20_000, "lab_2d_steps": 4, "lab_2d_nodes": 40, "lab_2d_time_nodes": [0.5],
        "oracle_nodes": 120, "oracle_flow_nodes": 40, "oracle_flow_steps": 100,
        "oracle_flow_ref": 400,
    },
    "tiny": {
        "lab_1d_n": 4_000, "lab_1d_sweep": "1000,2000",
        "lab_2d_n": 3_000, "lab_2d_steps": 4, "lab_2d_nodes": 12, "lab_2d_time_nodes": [0.5],
        "oracle_nodes": 40, "oracle_flow_nodes": 8, "oracle_flow_steps": 10,
        "oracle_flow_ref": 20,
    },
}

# Tolerances.  RADIAL_REL and RESIDUAL_REL come from the acceptance suite
# (criteria 6 and 4); ONE_STEP_MAX is the paper's straight-line bar
# (criterion 1).  The acceptance suite has no bound for an estimated field
# against the oracle, so FIELD_RMSE_MAX is set here from measurement: on the
# lab_1d field process at full size, seeds 1-40 measure a v RMSE of
# 0.031-0.131 and an a RMSE of 0.099-0.107, while a zero field would read
# about 2.6 and 6.8.
RADIAL_REL = 0.02
RESIDUAL_REL = 1e-3
ONE_STEP_MAX = 1e-6
FIELD_RMSE_MAX = 0.25
# mu1 variance of the lab_1d field process.  With mu1 = mu0 = N(0, 1) the
# trig interpolant's velocity field is identically 0, so a check against it
# would pass an estimator that returns zeros.
FIELD_MU1_VAR = 4.0


def _gauss(mean, cov):
    return {"family": "gaussian", "mean": list(mean), "cov": [list(r) for r in cov]}


def _write_config(work: Path, name: str, data: dict) -> str:
    out = work / name
    out.mkdir(parents=True, exist_ok=True)
    data = dict(data, output_dir=str(out / "out"))
    path = out / "config.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path)


def _command(label, config, argv, checks=()):
    out_dir = str(Path(config).parent / "out")
    return {
        "label": label,
        "command": argv[0],
        "argv": [argv[0], "--config", config] + list(argv[1:]),
        "out_dir": out_dir,
        "expect_exit": 0,
        "checks": list(checks),
    }


def build_plan(workload: str, seed: int, scale: str, work: Path) -> dict:
    """Write the workload's configs under ``work`` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    size = SIZES[scale]
    rng = random.Random(seed)
    work.mkdir(parents=True, exist_ok=True)
    std1 = _gauss([0.0], [[1.0]])
    std2 = _gauss([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])

    if workload == "lab_1d":
        n = size["lab_1d_n"]
        lab = {"process": {"coefficients": "trig", "dim": 1,
                           "coupling": {"kind": "independent", "mu0": std1, "mu1": std1}},
               "n": n, "seed": seed, "time_steps": 10, "source": "estimate"}
        cfg = _write_config(work, "lab_1d", lab)
        # the same process with mu1 = N(0, FIELD_MU1_VAR), for a nonzero v
        wide = _write_config(work, "lab_1d_wide", dict(lab, process={
            "coefficients": "trig", "dim": 1, "coupling": {
                "kind": "independent", "mu0": std1,
                "mu1": _gauss([0.0], [[FIELD_MU1_VAR]])}}))
        values = size["lab_1d_sweep"]
        commands = [
            _command("simulate", cfg, ["simulate"],
                     [{"kind": "ensemble_size", "n": n, "k": 11, "d": 1}]),
            _command("fields", wide, ["fields", "--source", "estimate"],
                     # t is the CLI's default time, which the config keeps
                     [{"kind": "trig_fields_close", "t": 0.5, "mu1_var": FIELD_MU1_VAR,
                       "rmse_max": FIELD_RMSE_MAX}]),
            _command("diagnose", cfg, ["diagnose"], [{"kind": "diagnostics_finite"}]),
            _command("verify_geometric", cfg, ["verify", "--theorem", "geometric"],
                     [{"kind": "verdict", "file": "theorem_geometric.json",
                       "key": ["verdict"], "expect": "consistent"},
                      {"kind": "radial", "rel": RADIAL_REL}]),
            _command("sweep", cfg, ["sweep", "--param", "n", "--values", values],
                     [{"kind": "sweep_rows", "rows": 2 * len(values.split(","))}]),
        ]
    elif workload == "lab_2d":
        cfg = _write_config(work, "lab_2d", {
            "process": {"coefficients": "affine", "dim": 2, "coupling": {
                "kind": "deterministic_map", "mu0": std2,
                "mu1": _gauss([2.0, -1.0], [[4.0, 0.0], [0.0, 9.0]]), "map": "ot"}},
            "n": size["lab_2d_n"], "seed": seed, "time_steps": size["lab_2d_steps"],
            "time_nodes": size["lab_2d_time_nodes"], "source": "estimate",
            "grid": {"nodes_per_axis": size["lab_2d_nodes"]},
        })
        commands = [
            _command("fields", cfg, ["fields", "--source", "estimate"]),
            # balance is left out on purpose: its reference rho|a| is zero
            # for affine processes (see NOTES.md)
            _command("diagnose", cfg, ["diagnose"], [{"kind": "diagnostics_finite"}]),
            _command("verify_determinism", cfg, ["verify", "--theorem", "determinism"],
                     [{"kind": "verdict", "file": "theorem_determinism.json",
                       "key": ["verdict"], "expect": "consistent"}]),
            _command("verify_affine", cfg, ["verify", "--theorem", "affine"],
                     [{"kind": "verdict", "file": "theorem_affine.json",
                       "key": ["verdict"], "expect": "consistent"}]),
        ]
    else:  # oracle_2d
        t = round(0.3 + 0.4 * rng.random(), 6)
        fields_cfg = _write_config(work, "oracle_trig", {
            "process": {"coefficients": "trig", "dim": 2,
                        "coupling": {"kind": "independent", "mu0": std2, "mu1": std2}},
            "n": 1, "seed": seed, "source": "oracle", "time": t,
            "grid": {"nodes_per_axis": size["oracle_nodes"]},
        })
        m1 = [round(2.0 + rng.uniform(-0.5, 0.5), 6), round(-1.0 + rng.uniform(-0.5, 0.5), 6)]
        flow_cfg = _write_config(work, "oracle_ot", {
            "process": {"coefficients": "affine", "dim": 2, "coupling": {
                "kind": "deterministic_map", "mu0": std2,
                "mu1": _gauss(m1, [[4.0, 0.0], [0.0, 9.0]]), "map": "ot"}},
            "n": 1, "seed": seed, "source": "oracle",
            "grid": {"nodes_per_axis": size["oracle_flow_nodes"]},
            "flow": {"scheme": "rk4", "steps": size["oracle_flow_steps"],
                     "reference_steps": size["oracle_flow_ref"]},
        })
        commands = [
            _command("fields", fields_cfg, ["fields", "--source", "oracle"]),
            _command("diagnose", fields_cfg, ["diagnose"],
                     [{"kind": "residuals", "rel": RESIDUAL_REL},
                      {"kind": "verdict", "file": "diagnostics.json",
                       "key": ["balance", "verdict"], "expect": "straight-compatible"}]),
            _command("flow", flow_cfg, ["flow", "--grid"],
                     [{"kind": "one_step", "max": ONE_STEP_MAX}]),
        ]
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "density_floor": DENSITY_FLOOR,
        "commands": commands,
    }


# ---------------------------------------------------------------------------
# output checks (run in the child, which has numpy)
# ---------------------------------------------------------------------------

def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _check_ensemble_size(out: Path, spec: dict):
    size = (out / "ensemble.sflw").stat().st_size
    expected = 5 + 24 + 3 * 8 * spec["n"] * spec["k"] * spec["d"]
    if size != expected:
        return f"ensemble.sflw has {size} bytes, expected {expected}"
    return None


def _read_field_csv(path: Path):
    import numpy as np

    with open(path) as fh:
        return np.array([[float(c) for c in r[:2]] for r in list(csv.reader(fh))[1:]]).T


def _check_trig_fields_close(out: Path, spec: dict):
    """Estimated v and a against the Gaussian oracle of the 1-D trig
    interpolant with independent N(0, 1) -> N(0, s2) endpoints.  There
    X_t ~ N(0, g) with g = a^2 + s2 b^2, so v(t, x) = (a a' + s2 b b') x / g;
    and Xddot = -(pi/2)^2 X_t pathwise, so a(t, x) = -(pi^2/4) x."""
    import numpy as np

    t, s2 = spec["t"], spec["mu1_var"]
    a, b = math.cos(math.pi * t / 2), math.sin(math.pi * t / 2)
    ad, bd = -math.pi / 2 * b, math.pi / 2 * a
    slopes = {"v": (a * ad + s2 * b * bd) / (a * a + s2 * b * b), "a": -math.pi**2 / 4}
    for name, slope in slopes.items():
        x, est = _read_field_csv(out / f"fields_{name}.csv")
        ok = np.isfinite(est)
        if ok.sum() < len(est) // 2:
            return f"{name}: only {int(ok.sum())} of {len(est)} nodes admissible"
        rmse = float(np.sqrt(np.mean((est[ok] - slope * x[ok]) ** 2)))
        if not rmse <= spec["rmse_max"]:
            return f"{name} rmse {rmse:.4g} against the oracle exceeds {spec['rmse_max']}"
    return None


def _check_diagnostics_finite(out: Path, spec: dict):
    rep = _read_json(out, "diagnostics.json")
    for key in ("continuity", "momentum"):
        if not math.isfinite(rep[key]["relative"]):
            return f"{key} relative residual is not finite"
    return None


def _check_verdict(out: Path, spec: dict):
    verdict = _read_json(out, spec["file"])
    for key in spec["key"]:
        verdict = verdict[key]
    if verdict != spec["expect"]:
        return f"verdict {verdict!r}, expected {spec['expect']!r}"
    return None


def _check_radial(out: Path, spec: dict):
    radial = _read_json(out, "theorem_geometric.json")["metrics"]["radial_acceleration"]
    target = -math.pi**2 / 4
    if not abs(radial - target) <= spec["rel"] * abs(target):
        return f"radial acceleration {radial:.5g} not within {spec['rel']:.0%} of -pi^2/4"
    return None


def _check_sweep_rows(out: Path, spec: dict):
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != spec["rows"]:
        return f"sweep.csv has {len(rows)} rows, expected {spec['rows']}"
    if not all(math.isfinite(float(r[-1])) for r in rows):
        return "sweep.csv holds a non-finite metric"
    return None


def _check_residuals(out: Path, spec: dict):
    rep = _read_json(out, "diagnostics.json")
    for key in ("continuity", "momentum", "balance"):
        rel = rep[key]["relative"]
        if not rel <= spec["rel"]:
            return f"{key} relative residual {rel:.3g} exceeds {spec['rel']}"
    return None


def _check_one_step(out: Path, spec: dict):
    rep = _read_json(out, "straightness.json")
    if rep["n_failed"] != 0:
        return f"{rep['n_failed']} flow points failed"
    if not rep["one_step"]["max"] <= spec["max"]:
        return f"one-step max {rep['one_step']['max']:.3g} exceeds {spec['max']}"
    return None


_CHECKS = {
    "ensemble_size": _check_ensemble_size,
    "trig_fields_close": _check_trig_fields_close,
    "diagnostics_finite": _check_diagnostics_finite,
    "verdict": _check_verdict,
    "radial": _check_radial,
    "sweep_rows": _check_sweep_rows,
    "residuals": _check_residuals,
    "one_step": _check_one_step,
}


def check_outputs(command: dict):
    """Run the command's content checks; the first failure's reason, or None."""
    out = Path(command["out_dir"])
    for spec in command["checks"]:
        try:
            reason = _CHECKS[spec["kind"]](out, spec)
        except (OSError, ValueError, KeyError, IndexError) as err:
            reason = f"{spec['kind']}: unreadable output ({type(err).__name__}: {err})"
        if reason:
            return reason
    return None
