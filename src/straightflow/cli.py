"""Configuration-driven command-line front end.

Grammar::

    straightflow <simulate|fields|diagnose|verify|flow|sweep> --config PATH [flags]

Configs are JSON validated against :data:`CONFIG_SCHEMA` (unknown keys are
rejected).  Flags mirror config entries and take precedence.  Every run with
a valid config ends by writing ``manifest.json``: config hash, tool version,
timestamp, seed, the result files the run wrote, and ``status`` ``complete``
or ``failed`` (then also the error class, message and exit code).  Result
files are written atomically and are byte-identical across re-runs with the
same config and seed.

Exit codes: 0 success/consistent, 1 other library error, 2 config error,
3 capability error, 4 theorem violated, 5 inconclusive; :func:`_error_exit`
maps each library error class to its code.

``fields`` and ``diagnose`` read one field source per run, the Gaussian oracle
or the kernel estimate at ``t``: :func:`_oracle_fields` or
:func:`_estimated_fields`.
``STRAIGHTFLOW_THREADS`` caps BLAS/OpenMP parallelism; the package applies it
on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__ as _VERSION
from . import calculus, core, errors, estimate, flow, gaussian, verify
from .errors import CapabilityError, ConfigError, StraightflowError

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "load_config",
    "config_hash",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_VIOLATED = 4
EXIT_INCONCLUSIVE = 5

_VEC = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_MATRIX = {"type": "array", "items": _VEC, "minItems": 1}
_POS = {"type": "number", "exclusiveMinimum": 0}

_DISTRIBUTION = {
    "type": "object",
    "properties": {
        "family": {"enum": ["gaussian", "gaussian_mixture", "empirical"]},
        "mean": _VEC,
        "cov": _MATRIX,
        "weights": _VEC,
        "means": _MATRIX,
        "covs": {"type": "array", "items": _MATRIX, "minItems": 1},
        "samples": _MATRIX,
    },
    "required": ["family"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "process": {
            "type": "object",
            "properties": {
                "coefficients": {"enum": ["affine", "trig", "latent"]},
                "dim": {"type": "integer", "minimum": 1},
                "coupling": {
                    "type": "object",
                    "properties": {
                        "kind": {
                            "enum": ["independent", "deterministic_map", "gaussian_joint"]
                        },
                        "mu0": _DISTRIBUTION,
                        "mu1": _DISTRIBUTION,
                        "map": {
                            "oneOf": [
                                {"const": "ot"},
                                {
                                    "type": "object",
                                    "properties": {"A": _MATRIX, "b": _VEC},
                                    "required": ["A", "b"],
                                    "additionalProperties": False,
                                },
                            ]
                        },
                        "joint": {
                            "type": "object",
                            "properties": {"mean": _VEC, "cov": _MATRIX},
                            "required": ["cov"],
                            "additionalProperties": False,
                        },
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
            "required": ["coefficients", "dim", "coupling"],
            "additionalProperties": False,
        },
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "seeds": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "time_steps": {"type": "integer", "minimum": 1},
        "grid": {
            "type": "object",
            "properties": {
                "nodes_per_axis": {"type": "integer", "minimum": 3},
                "box": {
                    "oneOf": [
                        {"enum": ["oracle", "quantile"]},
                        {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "minItems": 1,
                        },
                    ]
                },
            },
            "additionalProperties": False,
        },
        "bandwidth": {"oneOf": [{"const": "silverman"}, _POS]},
        "density_floor": {"type": "number", "minimum": 0},
        "source": {"enum": ["oracle", "estimate"]},
        "time": {"type": "number", "minimum": 0, "maximum": 1},
        "time_nodes": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
        },
        "h_t": {
            "type": "object",
            "properties": {"analytic": _POS},
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "balance_relative": _POS,
                "trace_ratio": _POS,
            },
            "additionalProperties": False,
        },
        "flow": {
            "type": "object",
            "properties": {
                "scheme": {"enum": ["euler", "midpoint", "rk4"]},
                "steps": {"type": "integer", "minimum": 1},
                "reference_steps": {"type": "integer", "minimum": 1},
                "n_points": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "output_dir": {"type": "string"},
    },
    "required": ["process", "n", "seed"],
    "additionalProperties": False,
}

# built once: jsonschema.validate would re-check the schema itself on every load
_CONFIG_VALIDATOR = jsonschema.Draft7Validator(CONFIG_SCHEMA)

_DEFAULTS = {
    "time_steps": 10,
    "grid": {"nodes_per_axis": 60, "box": "oracle"},
    "bandwidth": "silverman",
    "density_floor": 25.0,
    "source": "oracle",
    "time": 0.5,
    "time_nodes": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    "h_t": {"analytic": 1e-5},
    "tolerances": {"balance_relative": 1e-3, "trace_ratio": 0.05},
    "flow": {"scheme": "rk4", "steps": 100, "reference_steps": 400, "n_points": 100},
    "output_dir": "out",
}


class ExperimentConfig:
    """Validated config with defaults applied; ``data`` is the merged dict and
    ``canonical`` the byte-exact serialization that is hashed."""

    def __init__(self, data: dict):
        self.data = data
        self.canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)


def _merge_defaults(data: dict, defaults: dict) -> dict:
    out = dict(data)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    err = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(data))
    if err is not None:
        field = ".".join(str(p) for p in err.absolute_path) or "(root)"
        raise ConfigError(f"config field {field}: {err.message}", field) from err
    return ExperimentConfig(_merge_defaults(data, _DEFAULTS))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------

def _build_distribution(block: dict):
    family = block["family"]
    if family == "gaussian":
        if "mean" not in block or "cov" not in block:
            raise ConfigError("gaussian distribution needs mean and cov", "mu")
        return core.Gaussian(np.array(block["mean"]), np.array(block["cov"]))
    if family == "gaussian_mixture":
        for key in ("weights", "means", "covs"):
            if key not in block:
                raise ConfigError(f"gaussian_mixture needs {key}", key)
        return core.GaussianMixture(
            np.array(block["weights"]), np.array(block["means"]), np.array(block["covs"])
        )
    if "samples" not in block:
        raise ConfigError("empirical distribution needs samples", "samples")
    return core.Empirical(np.array(block["samples"]))


def build_process_spec(cfg: ExperimentConfig):
    proc = cfg["process"]
    cp = proc["coupling"]
    kind = cp["kind"]
    if kind == "gaussian_joint":
        if "joint" not in cp:
            raise ConfigError("gaussian_joint coupling needs a joint block", "coupling.joint")
        joint = cp["joint"]
        cov = np.array(joint["cov"])
        mean = np.array(joint.get("mean", [0.0] * cov.shape[0]))
        coupling = core.gaussian_joint_coupling(mean, cov)
    else:
        if "mu0" not in cp or "mu1" not in cp:
            raise ConfigError(f"{kind} coupling needs mu0 and mu1", "coupling.mu0")
        mu0 = _build_distribution(cp["mu0"])
        mu1 = _build_distribution(cp["mu1"])
        amap = None
        if kind == "deterministic_map":
            spec_map = cp.get("map")
            if spec_map == "ot":
                if not (isinstance(mu0, core.Gaussian) and isinstance(mu1, core.Gaussian)):
                    raise ConfigError(
                        "map rule 'ot' needs gaussian endpoint distributions", "coupling.map"
                    )
                amap = gaussian.gaussian_ot_map(mu0.mean, mu0.cov, mu1.mean, mu1.cov)
            elif isinstance(spec_map, dict):
                amap = core.AffineMap(np.array(spec_map["A"]), np.array(spec_map["b"]))
        coupling = core.CouplingSpec(kind, mu0, mu1, map=amap)

    tag = proc["coefficients"]
    if tag == "trig":
        alpha, beta, gamma = core.trig_alpha(), core.trig_beta(), None
    elif tag == "latent":
        alpha, beta, gamma = core.affine_alpha(), core.affine_beta(), core.bridge_gamma()
    else:
        alpha, beta, gamma = core.affine_alpha(), core.affine_beta(), None
    return core.ProcessSpec(alpha, beta, coupling, proc["dim"], gamma)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, payload) -> None:
    """Write ``payload`` under a temporary name next to ``path`` and move it
    into place; a failed write leaves neither file.  ``payload`` is text or
    a function that streams the file to the path it is given."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        if callable(payload):
            payload(tmp)
        else:
            tmp.write_text(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Outputs:
    """The result files of one run: each is written atomically into ``dir``
    and its name recorded in ``written`` once it is in place."""

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self.written: list[str] = []

    def write(self, name: str, payload) -> None:
        _atomic_write(self.dir / name, payload)
        self.written.append(name)


def _write_manifest(out: _Outputs, cfg: ExperimentConfig, failure=None) -> None:
    """The run's manifest; ``failure`` is the (error, exit code) that ended it."""
    manifest = {
        "config_hash": config_hash(cfg),
        "version": _VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": cfg["seed"],
        "rng_layout": core.RNG_LAYOUT,
        "outputs": sorted(out.written),
        "status": "complete" if failure is None else "failed",
    }
    if failure is not None:
        err, code = failure
        manifest["error"] = {"class": type(err).__name__, "message": str(err), "exit_code": code}
    _atomic_write(out.dir / "manifest.json", _json_text(manifest))


def _resolve_spatial_grid(cfg: ExperimentConfig, spec, t: float, sample=None):
    """Spatial grid at time ``t``.  A ``grid.box`` of 'oracle' is the oracle
    box when the process ``spec`` is Gaussian-expressible, else the per-axis
    1%/99% quantile box of ``sample``, as 'quantile' always is."""
    box = cfg["grid"]["box"]
    nodes = cfg["grid"]["nodes_per_axis"]
    if isinstance(box, list):
        return calculus.make_spatial_grid([(float(lo), float(hi)) for lo, hi in box], nodes)
    if box == "oracle":
        try:
            oracle_box = gaussian.oracle_box(gaussian.from_process_spec(spec), t)
            return calculus.make_spatial_grid(oracle_box, nodes)
        except CapabilityError:
            if sample is None:
                raise
    if sample is None:
        raise ConfigError("grid.box 'quantile' needs sampled positions", "grid.box")
    return calculus.make_spatial_grid(list(zip(*calculus.quantile_box(sample))), nodes)


def _kernel_config(cfg: ExperimentConfig):
    return estimate.KernelConfig(bandwidth=cfg["bandwidth"], density_floor=cfg["density_floor"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ExperimentConfig, out: _Outputs) -> int:
    spec = build_process_spec(cfg)
    grid = core.make_time_grid(cfg["time_steps"])
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    states = core.slice_state(spec, endpoints, grid.nodes)
    out.write("ensemble.sflw", lambda path: core.save_ensemble(states, path))
    print(
        f"simulate: wrote {out.dir / 'ensemble.sflw'} "
        f"(N={endpoints.n}, K={grid.n_nodes}, d={spec.dim})"
    )
    return EXIT_OK


def _oracle_fields(cfg: ExperimentConfig, t: float):
    """``fields_at(tt)``: the Gaussian oracle's fields at time ``tt``,
    tabulated on the grid resolved at ``t``."""
    spec = build_process_spec(cfg)
    gspec = gaussian.from_process_spec(spec)
    grid = _resolve_spatial_grid(cfg, spec, t)
    return lambda tt: gaussian.fields_on_grid(gspec, tt, grid)


def _estimated_fields(cfg: ExperimentConfig, t: float, time_derivatives: bool = False):
    """The kernel estimate at ``t``, the only time it is taken at.  The
    endpoints, sampled once, are sliced once at ``t``; that slice sizes the
    grid box and feeds the estimator, which also returns the exact time
    derivatives when ``time_derivatives`` asks for them."""
    spec = build_process_spec(cfg)
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    X, V, A = core.slice_state(spec, endpoints, t)
    grid = _resolve_spatial_grid(cfg, spec, t, sample=X)
    return estimate.fields_on_grid(X, V, A, grid, _kernel_config(cfg), t, time_derivatives)


def cmd_fields(cfg: ExperimentConfig, out: _Outputs, source: str, t: float) -> int:
    names = ["rho", "v", "a", "Sigma", "Pi"]
    fields = _oracle_fields(cfg, t)(t) if source == "oracle" else _estimated_fields(cfg, t)
    for name in names:
        out.write(f"fields_{name.lower()}.csv", calculus.grid_field_to_csv(fields[name]))
    print(f"fields: wrote {len(names)} CSVs to {out.dir} (source={source}, t={t:g})")
    return EXIT_OK


def cmd_diagnose(cfg: ExperimentConfig, out: _Outputs, t: float) -> int:
    source = cfg["source"]
    if source == "oracle":
        # analytic fields: central differences in time, a fourth-order stencil
        fields_at = _oracle_fields(cfg, t)
        h_t, order = cfg["h_t"]["analytic"], 4
        if not (h_t <= t <= 1.0 - h_t):
            raise ConfigError("diagnose time must keep t +- h_t inside [0, 1]", "time")
        f_m, f, f_p = (fields_at(tt) for tt in (t - h_t, t, t + h_t))
        f.update(calculus.central_time_derivatives(f_m, f, f_p, h_t))
    else:
        # the estimate's exact time derivatives; noisy fields, a second-order stencil
        h_t, order = None, 2
        f = _estimated_fields(cfg, t, time_derivatives=True)

    cont = calculus.continuity_residual(f["rho"], f["v"], f["dt_rho"], order=order)
    mom = calculus.momentum_residual(
        f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"], order=order
    )
    bal = calculus.balance_residual(
        f["rho"], f["Pi"], f["a"], order=order,
        tolerance=cfg["tolerances"]["balance_relative"],
    )
    mat = calculus.material_residual(f["v"], f["dt_v"], order=order)

    def norms(rep):
        return {k: getattr(rep, k) for k in ("max_abs", "rms", "reference", "relative", "n_nodes")}

    report = {
        "provenance": {
            "seed": cfg["seed"],
            "config_hash": config_hash(cfg),
            "version": _VERSION,
            "source": source,
            "time": t,
            "h_t": h_t,
            "stencil_order": order,
        },
        "continuity": norms(cont),
        "momentum": norms(mom),
        "balance": {**norms(bal), "verdict": bal.verdict},
        "material": norms(mat),
    }
    out.write("diagnostics.json", _json_text(report))
    out.write("residual_continuity.csv", calculus.grid_field_to_csv(cont.residual))
    out.write("residual_momentum.csv", calculus.grid_field_to_csv(mom.residual))
    out.write("residual_balance.csv", calculus.grid_field_to_csv(bal.residual))
    out.write("residual_material.csv", calculus.grid_field_to_csv(mat.residual))
    print(f"diagnose: continuity rel={cont.relative:.3g} momentum rel={mom.relative:.3g} "
          f"balance rel={bal.relative:.3g} ({bal.verdict})")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out: _Outputs, theorem: str) -> int:
    spec = build_process_spec(cfg)
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    floor = cfg["density_floor"]
    if theorem == "affine":
        report = verify.affine_straightness_check(
            spec, endpoints, tuple(cfg["time_nodes"]), density_floor=floor
        )
    else:
        grid = core.make_time_grid(cfg["time_steps"])
        if theorem == "geometric":
            report = verify.geometric_report(
                spec, endpoints, grid, grid.index_of(cfg["time"]), density_floor=floor
            )
        else:
            report = verify.determinism_detector(
                spec, endpoints, grid, ratio=cfg["tolerances"]["trace_ratio"],
                density_floor=floor,
            )
    out.write(f"theorem_{theorem}.json", _json_text(report.to_json_dict()))
    print(f"verify[{theorem}]: verdict={report.verdict}")
    return {
        "consistent": EXIT_OK,
        "violated": EXIT_VIOLATED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[report.verdict]


def _read_points(path: str, dim: int) -> np.ndarray:
    """Start points from a CSV file, one point of ``dim`` finite numbers per
    row; ConfigError (field ``points``) for anything else."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file warns; it is refused below
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read points file {path}: {err}", "points") from err
    if pts.size == 0:
        raise ConfigError(f"points file {path} holds no points", "points")
    if pts.shape[1] != dim:
        raise ConfigError(f"points file has dimension {pts.shape[1]}, process has {dim}", "points")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(f"points file {path} holds a non-finite coordinate", "points")
    return pts


def cmd_flow(cfg: ExperimentConfig, out: _Outputs, points_file: str | None, use_grid: bool,
             scheme: str, steps: int) -> int:
    tgrid = core.make_time_grid(steps)
    spec = build_process_spec(cfg)
    source = cfg["source"]
    sample = None
    if source == "oracle":
        oracle = flow.analytic_velocity_oracle(gaussian.from_process_spec(spec))
    else:
        grid_t = core.make_time_grid(max(cfg["time_steps"], 10))
        endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
        oracle = flow.kernel_velocity_oracle(spec, endpoints, grid_t, _kernel_config(cfg))
        sample = core.slice_state(spec, endpoints, 0.0)[0]

    if points_file is not None:
        pts = _read_points(points_file, spec.dim)
    elif use_grid:
        sgrid = _resolve_spatial_grid(cfg, spec, 0.0, sample=sample)
        pts = sgrid.points()[sgrid.mask.ravel()]
    else:
        pts = spec.coupling.mu0.draw(core.aux_rng(cfg["seed"], 4), cfg["flow"]["n_points"])

    result = flow.flow_map(oracle, pts, tgrid, scheme)
    one_step = flow.one_step_error(oracle, pts, reference_steps=cfg["flow"]["reference_steps"])

    kept = result.kept
    states = result.states[kept]
    dev = flow.straightness_deviation(states, tgrid) if tgrid.n_nodes >= 3 else None
    per_point = {i: {"point": i, "error": str(err)} for i, err in result.errors}
    for j, i in enumerate(kept):
        one = float(one_step.errors[i])
        per_point[i] = {"point": i, "one_step_error": one if np.isfinite(one) else None}
        if dev is not None:
            per_point[i]["chord_dev"] = float(dev.chord_dev[j])
            per_point[i]["second_diff"] = float(dev.second_diff[j])

    # one row per kept point and time node, streamed: the text is never held whole
    states = states.reshape(-1, spec.dim)
    lead = itertools.product([str(i) for i in kept], [repr(t) for t in tgrid.nodes.tolist()])

    def write_trajectories(path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("point,t," + ",".join(f"x{i}" for i in range(spec.dim)) + "\n")
            fh.writelines(calculus._csv_blocks(lead, states))

    out.write("trajectories.csv", write_trajectories)
    summary = {
        "provenance": {
            "seed": cfg["seed"],
            "config_hash": config_hash(cfg),
            "version": _VERSION,
            "scheme": scheme,
            "steps": steps,
            "source": source,
        },
        "one_step": {
            "max": one_step.max_error,
            "rms": one_step.rms_error,
            "reference_steps_used": one_step.reference_steps,
            "reference_gap": one_step.reference_gap,
        },
        "points": [per_point[i] for i in sorted(per_point)],
        "n_failed": len(result.errors),
    }
    out.write("straightness.json", _json_text(summary))
    print(
        f"flow: {len(pts)} points, scheme={scheme}, steps={steps}, "
        f"one_step max={one_step.max_error:.3g}"
    )
    return EXIT_OK


_SWEEP_PARAMS = {"n": int, "seed": int, "bandwidth": float, "time": float}


def _sweep_metrics(cfg: ExperimentConfig) -> dict:
    spec = build_process_spec(cfg)
    gspec = gaussian.from_process_spec(spec)
    t = cfg["time"]
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    X, V, _ = core.slice_state(spec, endpoints, t)
    mom = gaussian.marginal_moments(gspec, t)
    sd = np.sqrt(np.diag(mom.cov))
    pts = np.stack(
        [np.linspace(m - 2 * s, m + 2 * s, 9) for m, s in zip(mom.mean, sd)], axis=1
    )
    kcfg = _kernel_config(cfg)
    h = estimate.resolve_bandwidth(kcfg, X)
    vhat, _ = estimate.nw_regress(X, V, pts, h)
    v_true = gaussian.velocity_at(gspec, t, pts)
    v_rmse = float(np.sqrt(np.mean(np.sum((vhat - v_true) ** 2, axis=1))))
    tp = verify.tr_pi_moment(X, V, core.aux_rng(cfg["seed"], 5), m_eval=2048)
    return {"v_rmse": v_rmse, "tr_pi": tp.value}


def cmd_sweep(cfg: ExperimentConfig, out: _Outputs, param: str, values: list[str]) -> int:
    if param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; known: {sorted(_SWEEP_PARAMS)}", "param"
        )
    if not values:
        raise ConfigError("sweep needs a nonempty values list", "values")
    caster = _SWEEP_PARAMS[param]
    try:
        parsed = [caster(v) for v in values]
    except ValueError as err:
        raise ConfigError(f"sweep value not a {caster.__name__}: {err}", "values") from err

    seeds = cfg.get("seeds") or [cfg["seed"]]
    lead, metric_values = [], []
    for value in parsed:
        sweep_seeds = [value] if param == "seed" else seeds
        for seed in sweep_seeds:
            data = json.loads(cfg.canonical)
            data[param] = value
            data["seed"] = int(seed)
            metrics = _sweep_metrics(ExperimentConfig(data))  # data holds every default
            value_cell = "" if param == "seed" else repr(float(value))
            for metric in ("v_rmse", "tr_pi"):
                lead.append((param, value_cell, str(seed), metric))
                metric_values.append([metrics[metric]])
    rows = "".join(calculus._csv_blocks(lead, np.array(metric_values)))
    out.write("sweep.csv", "param,value,seed,metric,metric_value\n" + rows)
    print(f"sweep: wrote {out.dir / 'sweep.csv'} ({len(lead)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="straightflow",
        description="Numerical laboratory for straight-line probability flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON experiment config")
        return p

    add("simulate", "sample a path ensemble and write the binary cache")
    p = add("fields", "tabulate rho/v/a/Sigma/Pi on the grid as CSVs")
    p.add_argument("--source", choices=["oracle", "estimate"], default=None)
    p.add_argument("--time", type=float, default=None)
    p = add("diagnose", "continuity/momentum/balance/material residual report")
    p.add_argument("--time", type=float, default=None)
    p = add("verify", "run a theorem harness")
    p.add_argument("--theorem", choices=["affine", "geometric", "determinism"], required=True)
    p = add("flow", "integrate the probability-flow ODE and measure straightness")
    p.add_argument("--points", default=None, help="CSV file of starting points")
    p.add_argument("--grid", action="store_true", help="start from the masked grid nodes")
    p.add_argument("--scheme", choices=["euler", "midpoint", "rk4"], default=None)
    p.add_argument("--steps", type=int, default=None)
    p = add("sweep", "cross product of a parameter sweep, long-format CSV")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def _error_exit(err) -> tuple[int, str]:
    """Exit code and stderr label of a library error; an unlisted class exits 1."""
    e = errors
    for classes, code, label in (
        # NoAdmissibleNodesError is an InvalidGridError, so it goes first
        ((e.LowDensityError, e.NoAdmissibleNodesError, e.TrajectoryLeftSupportError,
          e.InconsistentMomentsError), EXIT_INCONCLUSIVE, "inconclusive"),
        ((e.ConfigError, e.InvalidArgumentError, e.InvalidCouplingError, e.InvalidGridError,
          e.NonFiniteDataError), EXIT_CONFIG, "config error"),
        ((e.CapabilityError, e.DegenerateMarginalError, e.DegenerateDataError),
         EXIT_CAPABILITY, "capability error"),
    ):
        if isinstance(err, classes):
            return code, label
    return EXIT_ERROR, "error"


def _run_command(args, cfg: ExperimentConfig, out: _Outputs) -> int:
    if args.command == "simulate":
        return cmd_simulate(cfg, out)
    if args.command == "fields":
        return cmd_fields(
            cfg, out, args.source or cfg["source"],
            cfg["time"] if args.time is None else args.time,
        )
    if args.command == "diagnose":
        return cmd_diagnose(cfg, out, cfg["time"] if args.time is None else args.time)
    if args.command == "verify":
        return cmd_verify(cfg, out, args.theorem)
    if args.command == "flow":
        return cmd_flow(
            cfg, out, args.points, args.grid,
            args.scheme or cfg["flow"]["scheme"],
            cfg["flow"]["steps"] if args.steps is None else args.steps,
        )
    return cmd_sweep(cfg, out, args.param, [v for v in args.values.split(",") if v])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    def report(err) -> int:
        code, label = _error_exit(err)
        print(f"{label}: {err}".replace("\n", " "), file=sys.stderr)
        return code

    try:
        cfg = load_config(args.config)
    except StraightflowError as err:
        return report(err)
    out = _Outputs(Path(cfg["output_dir"]))
    out.dir.mkdir(parents=True, exist_ok=True)
    try:
        code = _run_command(args, cfg, out)
    except StraightflowError as err:
        code = report(err)
        _write_manifest(out, cfg, (err, code))
        return code
    except Exception as err:  # a defect: record how the run ended, keep the traceback
        _write_manifest(out, cfg, (err, EXIT_ERROR))
        raise
    _write_manifest(out, cfg)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
