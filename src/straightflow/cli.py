"""Configuration-driven command-line front end.

Grammar::

    straightflow <simulate|fields|diagnose|verify|flow|sweep> --config PATH [flags]

Configs are JSON validated against :data:`CONFIG_SCHEMA` (unknown keys are
rejected; every number is finite).  The flags that mirror config entries are
set into the config merged with its defaults, which is validated again, and
every command reads that one dict.  Every run with a valid config ends by
writing ``manifest.json``: that config's hash, tool version, timestamp, seed,
the result files the run wrote, and ``status`` ``complete`` or ``failed``
(then also the error class, message and exit code).  Result files are written
atomically and are byte-identical across re-runs with the same config and seed.

Exit codes: 0 success/consistent, 1 other library error, 2 config error,
3 capability error, 4 theorem violated, 5 inconclusive; :func:`_error_exit`
maps each library error class to its code.

``fields`` and ``diagnose`` read one field source per run, the Gaussian oracle
or the kernel estimate, built once at ``t`` in ``[0, 1]``: :func:`_oracle_fields`
or :func:`_estimated_fields`.  For ``diagnose`` both also return the exact
time derivatives ``dt_rho``, ``dt_rho_v`` and ``dt_v`` at ``t``, so the
residuals take no difference in time.
``STRAIGHTFLOW_THREADS`` caps BLAS/OpenMP parallelism; the package applies it
on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
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
                "coefficients": {"enum": list(core.COEFFICIENTS)},
                "dim": {"type": "integer", "minimum": 1},
                "coupling": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": list(core.COUPLING_KINDS)},
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
        "bandwidth": {"oneOf": [{"const": "silverman"}, {"type": "number", "exclusiveMinimum": 0}]},
        "density_floor": {"type": "number", "minimum": 0},
        "source": {"enum": ["oracle", "estimate"]},
        "time": {"type": "number", "minimum": 0, "maximum": 1},
        "time_nodes": {
            "type": "array",
            "items": {"type": "number", "minimum": 0, "maximum": 1},
            "minItems": 1,
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

# built once: jsonschema.validate would re-check the schema itself on every
# call.  A ``number`` is an int or float finite as a double (json reads NaN,
# Infinity and an overflowing literal such as 1e999 as floats), and an
# ``integer`` an int: draft 7 also admits 1e3 and 7.0, which numpy refuses as a
# size or a seed.  A bool is neither.
_CONFIG_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine_many({
        "number": lambda checker, x: type(x) in (int, float) and abs(x) <= sys.float_info.max,
        "integer": lambda checker, x: type(x) is int,
    }),
)(CONFIG_SCHEMA)

_DEFAULTS = {
    "time_steps": 10,
    "grid": {"nodes_per_axis": 60, "box": "oracle"},
    "bandwidth": "silverman",
    "density_floor": 25.0,
    "source": "oracle",
    "time": 0.5,
    "time_nodes": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    "flow": {"scheme": "rk4", "steps": 100, "reference_steps": 400, "n_points": 100},
    "output_dir": "out",
}


def _merge_defaults(data: dict, defaults: dict) -> dict:
    out = dict(data)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def _validated(cfg: dict) -> dict:
    """``cfg`` once the schema admits it; else ConfigError naming one field."""
    err = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(cfg))
    if err is not None:
        field = ".".join(str(p) for p in err.absolute_path) or "(root)"
        raise ConfigError(f"config field {field}: {err.message}", field) from err
    return cfg


def load_config(path) -> dict:
    """Parse and validate a config file and return it merged with the
    defaults, a plain dict; raises ConfigError on any problem."""
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
    return _merge_defaults(_validated(data), _DEFAULTS)


def _with_flags(cfg: dict, args) -> dict:
    """``cfg`` with the flags given in ``args`` set into it (``scheme`` and
    ``steps`` under ``flow``) and validated again; ``cfg`` when none is given."""
    flags = {k: v for k, v in vars(args).items()
             if k in ("source", "time", "scheme", "steps") and v is not None}
    if not flags:
        return cfg
    flow = {k: flags.pop(k) for k in ("scheme", "steps") if k in flags}
    return _validated(cfg | flags | {"flow": cfg["flow"] | flow})


def config_hash(cfg: dict) -> str:
    """SHA-256 of the merged config's canonical JSON: sorted keys, no spaces."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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


def build_process_spec(cfg: dict):
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

    return core.ProcessSpec(proc["coefficients"], coupling, proc["dim"])


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, payload) -> None:
    """Write ``payload`` under a temporary name next to ``path`` and move it
    into place; a failed write leaves neither file.  ``payload`` is text,
    an iterable of text pieces written in turn, or a function that streams
    the file to the path it is given."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        if callable(payload):
            payload(tmp)
        else:
            with open(tmp, "w") as fh:
                fh.writelines([payload] if isinstance(payload, str) else payload)
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


def _provenance(cfg: dict, **fields) -> dict:
    """The seed, config hash and tool version of a run, with ``fields``."""
    return {"seed": cfg["seed"], "config_hash": config_hash(cfg), "version": _VERSION, **fields}


def _write_manifest(out: _Outputs, cfg: dict, failure=None) -> None:
    """The run's manifest; ``failure`` is the (error, exit code) that ended it."""
    manifest = _provenance(
        cfg,
        timestamp=datetime.now(timezone.utc).isoformat(),
        rng_layout=core.RNG_LAYOUT,
        outputs=sorted(out.written),
        status="complete" if failure is None else "failed",
    )
    if failure is not None:
        err, code = failure
        manifest["error"] = {"class": type(err).__name__, "message": str(err), "exit_code": code}
    _atomic_write(out.dir / "manifest.json", _json_text(manifest))


def _resolve_spatial_grid(cfg: dict, spec, t: float, sample=None):
    """Spatial grid at time ``t``.  A ``grid.box`` of 'oracle' is the oracle
    box when the process ``spec`` is Gaussian-expressible, else the per-axis
    1%/99% quantile box of ``sample``, as 'quantile' always is."""
    box = cfg["grid"]["box"]
    nodes = cfg["grid"]["nodes_per_axis"]
    if isinstance(box, list):
        if len(box) != spec.dim:
            raise ConfigError(f"grid.box has {len(box)} axes, not {spec.dim}", "grid.box")
        return calculus.make_spatial_grid([(float(lo), float(hi)) for lo, hi in box], nodes)
    if box == "oracle":
        try:
            oracle_box = gaussian.oracle_box(spec, t)
            return calculus.make_spatial_grid(oracle_box, nodes)
        except CapabilityError:
            if sample is None:
                raise
    if sample is None:
        raise ConfigError("grid.box 'quantile' needs sampled positions", "grid.box")
    return calculus.make_spatial_grid(list(zip(*calculus.quantile_box(sample))), nodes)


def _kernel_config(cfg: dict):
    return estimate.KernelConfig(bandwidth=cfg["bandwidth"], density_floor=cfg["density_floor"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, out: _Outputs) -> int:
    spec = build_process_spec(cfg)
    steps = cfg["time_steps"]
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    out.write("ensemble.sflw", lambda path: core.save_ensemble(spec, path, endpoints, steps))
    print(
        f"simulate: wrote {out.dir / 'ensemble.sflw'} "
        f"(N={endpoints.n}, K={steps + 1}, d={spec.dim})"
    )
    return EXIT_OK


def _oracle_fields(cfg: dict, time_derivatives: bool = False):
    """(grid, fields): the Gaussian oracle at the config's ``time`` on the
    grid resolved there, with its exact time derivatives when
    ``time_derivatives`` asks for them."""
    spec, t = build_process_spec(cfg), cfg["time"]
    grid = _resolve_spatial_grid(cfg, spec, t)
    return grid, gaussian.fields_on_grid(spec, t, grid, time_derivatives)


def _estimated_fields(cfg: dict, time_derivatives: bool = False):
    """(grid, fields): the kernel estimate at the config's ``time`` t, the only
    time it is taken at.  The endpoints, sampled once, are sliced once at t;
    that slice sizes the grid box and feeds the estimator, which also returns
    the exact time derivatives when ``time_derivatives`` asks for them."""
    spec, t = build_process_spec(cfg), cfg["time"]
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    X, V, A = core.slice_state(spec, endpoints, t)
    grid = _resolve_spatial_grid(cfg, spec, t, sample=X)
    return grid, estimate.fields_on_grid(X, V, A, grid, _kernel_config(cfg), time_derivatives)


def cmd_fields(cfg: dict, out: _Outputs) -> int:
    names = ["rho", "v", "a", "Sigma", "Pi"]
    source, t = cfg["source"], cfg["time"]
    grid, fields = (_oracle_fields if source == "oracle" else _estimated_fields)(cfg)
    for name in names:
        out.write(f"fields_{name.lower()}.csv", calculus.grid_field_to_csv(grid, fields[name]))
    print(f"fields: wrote {len(names)} CSVs to {out.dir} (source={source}, t={t:g})")
    return EXIT_OK


def cmd_diagnose(cfg: dict, out: _Outputs) -> int:
    source, t = cfg["source"], cfg["time"]
    # both sources give exact time derivatives at t; smooth analytic fields
    # take a fourth-order stencil, noisy estimates a second-order one
    fields_at, order = (_oracle_fields, 4) if source == "oracle" else (_estimated_fields, 2)
    grid, f = fields_at(cfg, time_derivatives=True)

    cont = calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"], order=order)
    mom = calculus.momentum_residual(
        grid, f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"], order=order
    )
    bal = calculus.balance_residual(grid, f["rho"], f["Pi"], f["a"], order=order)
    mat = calculus.material_residual(grid, f["v"], f["dt_v"], order=order)

    residuals = {"continuity": cont, "momentum": mom, "balance": bal, "material": mat}
    norms = ("max_abs", "rms", "reference", "relative", "n_nodes")
    report = {"provenance": _provenance(cfg, source=source, time=t, stencil_order=order)}
    for name, rep in residuals.items():
        report[name] = {k: getattr(rep, k) for k in norms}
    report["balance"]["verdict"] = bal.verdict
    out.write("diagnostics.json", _json_text(report))
    for name, rep in residuals.items():
        out.write(f"residual_{name}.csv", calculus.grid_field_to_csv(grid, rep.residual))
    print(f"diagnose: continuity rel={cont.relative:.3g} momentum rel={mom.relative:.3g} "
          f"balance rel={bal.relative:.3g} ({bal.verdict})")
    return EXIT_OK


def _node_index(t: float, steps: int) -> int:
    """Index of the node of ``core.time_nodes(steps)`` within 1e-9 of ``t``."""
    k = int(round(t * steps))
    if not 0 <= k <= steps or abs(core.time_nodes(steps)[k] - t) > 1e-9:
        raise ConfigError(f"time {t} is not a grid node", "time")
    return k


def cmd_verify(cfg: dict, out: _Outputs, theorem: str) -> int:
    spec = build_process_spec(cfg)
    steps, floor = cfg["time_steps"], cfg["density_floor"]
    # an off-grid time is refused before anything is sampled
    t_index = _node_index(cfg["time"], steps) if theorem == "geometric" else None
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    if theorem == "affine":
        report = verify.affine_straightness_check(
            spec, endpoints, tuple(cfg["time_nodes"]), density_floor=floor
        )
    elif theorem == "geometric":
        report = verify.geometric_report(spec, endpoints, steps, t_index, density_floor=floor)
    else:
        report = verify.determinism_detector(spec, endpoints, steps, density_floor=floor)
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


def cmd_flow(cfg: dict, out: _Outputs, points_file: str | None, use_grid: bool) -> int:
    scheme, steps = cfg["flow"]["scheme"], cfg["flow"]["steps"]
    nodes = core.time_nodes(steps)
    spec = build_process_spec(cfg)
    source = cfg["source"]
    sample = None
    if source == "oracle":
        oracle = flow.analytic_velocity_oracle(spec)
    else:
        endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
        oracle = flow.kernel_velocity_oracle(spec, endpoints, _kernel_config(cfg))
        sample = core.slice_state(spec, endpoints, 0.0)[0]

    if points_file is not None:
        pts = _read_points(points_file, spec.dim)
    elif use_grid:
        sgrid = _resolve_spatial_grid(cfg, spec, 0.0, sample=sample)
        pts = sgrid.interior_points()
    else:
        pts = spec.coupling.mu0.draw(core.aux_rng(cfg["seed"], 4), cfg["flow"]["n_points"])

    result = flow.flow_map(oracle, pts, steps, scheme)
    one_step = flow.one_step_error(oracle, pts, reference_steps=cfg["flow"]["reference_steps"])

    kept = result.kept
    states = result.states[kept] if result.errors else result.states  # indexing copies
    dev = flow.straightness_deviation(states) if steps >= 2 else None
    per_point = {i: {"point": i, "error": str(err)} for i, err in result.errors}
    for j, i in enumerate(kept):
        one = float(one_step.errors[i])
        per_point[i] = {"point": i, "one_step_error": one if np.isfinite(one) else None}
        if dev is not None:
            per_point[i]["chord_dev"] = float(dev.chord_dev[j])
            per_point[i]["second_diff"] = float(dev.second_diff[j])

    # one row per kept point and time node, streamed: neither text nor index is held whole
    header = ["point", "t"] + [f"x{i}" for i in range(spec.dim)]
    lead = [[str(i) for i in kept], [repr(t) for t in nodes.tolist()]]
    out.write("trajectories.csv", calculus.csv_table(header, lead, states.reshape(-1, spec.dim)))
    summary = {
        "provenance": _provenance(cfg, scheme=scheme, steps=steps, source=source),
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


def _sweep_metrics(cfg: dict) -> dict:
    spec = build_process_spec(cfg)
    t = cfg["time"]
    endpoints = core.sample_endpoints(spec, cfg["n"], cfg["seed"])
    X, V, _ = core.slice_state(spec, endpoints, t)
    mom = gaussian.marginal_moments(spec, t)
    sd = np.sqrt(np.diag(mom.cov))
    pts = np.stack(
        [np.linspace(m - 2 * s, m + 2 * s, 9) for m, s in zip(mom.mean, sd)], axis=1
    )
    kcfg = _kernel_config(cfg)
    h = estimate.resolve_bandwidth(kcfg, X)
    vhat, _ = estimate.nw_regress(X, V, pts, h)
    v_true = gaussian.velocity_at(spec, t, pts)
    v_rmse = float(np.sqrt(np.mean(np.sum((vhat - v_true) ** 2, axis=1))))
    tp = verify.tr_pi_moment(X, V, core.aux_rng(cfg["seed"], 5), m_eval=2048, density_floor=0)
    return {"v_rmse": v_rmse, "tr_pi": tp.value}


def cmd_sweep(cfg: dict, out: _Outputs, param: str, values: list[str]) -> int:
    if not values:
        raise ConfigError("sweep needs a nonempty values list", "values")
    caster = _SWEEP_PARAMS[param]
    try:
        parsed = [caster(v) for v in values]
    except ValueError as err:
        raise ConfigError(f"sweep value not a {caster.__name__}: {err}", "values") from err
    # every cell passes the config's gate before any cell runs
    cells = [
        (value, seed, _validated(cfg | {param: value, "seed": int(seed)}))
        for value in parsed
        for seed in ([value] if param == "seed" else cfg.get("seeds") or [cfg["seed"]])
    ]
    heads, metric_values = [], []
    for value, seed, cell in cells:
        metrics = _sweep_metrics(cell)
        value_cell = "" if param == "seed" else repr(float(value))
        for metric in ("v_rmse", "tr_pi"):
            heads.append(f"{param},{value_cell},{seed},{metric}")
            metric_values.append([metrics[metric]])
    header = ["param", "value", "seed", "metric", "metric_value"]
    out.write("sweep.csv", calculus.csv_table(header, [heads], np.array(metric_values)))
    print(f"sweep: wrote {out.dir / 'sweep.csv'} ({len(heads)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves it unchanged
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
    starts = p.add_mutually_exclusive_group()
    starts.add_argument("--points", default=None, help="CSV file of starting points")
    starts.add_argument("--grid", action="store_true", help="start from the interior grid nodes")
    p.add_argument("--scheme", choices=["euler", "midpoint", "rk4"], default=None)
    p.add_argument("--steps", type=int, default=None)
    p = add("sweep", "cross product of a parameter sweep, long-format CSV")
    p.add_argument("--param", choices=sorted(_SWEEP_PARAMS), required=True)
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


def _run_command(args, cfg: dict, out: _Outputs) -> int:
    if args.command == "simulate":
        return cmd_simulate(cfg, out)
    if args.command == "fields":
        return cmd_fields(cfg, out)
    if args.command == "diagnose":
        return cmd_diagnose(cfg, out)
    if args.command == "verify":
        return cmd_verify(cfg, out, args.theorem)
    if args.command == "flow":
        return cmd_flow(cfg, out, args.points, args.grid)
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
        cfg = _with_flags(cfg, args)
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
