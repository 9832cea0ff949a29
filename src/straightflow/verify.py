"""Theorem-level harnesses composing sampling, estimation, grid residuals and
flows.

Every verdict is calibrated against a control run (permuted endpoint
pairing) with the same sample size, bandwidth and evaluation points; the
estimators are biased, so only such relative statements are decidable.

The trace of the Reynolds tensor is integrated through the moment identity
E[Tr Pi(X)] = E|Xdot|^2 - E|v(X)|^2 (law of total variance), estimated as a
paired difference over a seeded subsample of sample points with Nadaraya-
Watson v.  The regression bandwidth is half the Silverman density bandwidth:
the paired difference needs low bias more than low variance, and measured on
deterministic couplings the halved bandwidth puts the noise floor around
5e-3, two orders under stochastic controls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import calculus, estimate, flow
from .core import (
    EndpointArrays,
    PathEnsemble,
    ProcessSpec,
    aux_rng,
    make_time_grid,
    sample_endpoints,
    slice_state,
)
from .errors import (
    CapabilityError,
    InvalidArgumentError,
    NonFiniteDataError,
    StraightflowError,
)
from .gaussian import from_process_spec

__all__ = [
    "TheoremReport",
    "affine_straightness_check",
    "geometric_report",
    "determinism_detector",
    "tr_pi_moment",
]

_TRACE_BANDWIDTH_FACTOR = 0.5
_DEFAULT_M_EVAL = 4096
_DETERMINISM_M_EVAL = 2048
_LOW_DENSITY_FRACTION = 0.2


@dataclass(frozen=True)
class TheoremReport:
    """Named scalar measurements against thresholds with a derived verdict."""

    name: str
    inputs: dict
    metrics: dict
    thresholds: dict
    verdict: str  # consistent | violated | inconclusive
    notes: str = ""

    def to_json_dict(self) -> dict:
        def clean(v):
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "name": self.name,
            "inputs": self.inputs,
            "metrics": {k: clean(v) for k, v in self.metrics.items()},
            "thresholds": {k: clean(v) for k, v in self.thresholds.items()},
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class TraceMoment:
    value: float
    low_density_fraction: float


def _subsample_velocity(X: np.ndarray, V: np.ndarray, rng: np.random.Generator, m_eval: int):
    """A seeded subsample of ``m_eval`` sample rows (all rows when fewer) and
    the Nadaraya-Watson velocity at them, with half the Silverman bandwidth;
    returns (idx, vhat, effective n)."""
    n = X.shape[0]
    idx = rng.choice(n, size=min(int(m_eval), n), replace=False)
    h = estimate.silverman_bandwidth_from(X) * _TRACE_BANDWIDTH_FACTOR
    vhat, eff = estimate.nw_regress(X, V, X[idx], h)
    return idx, vhat, eff


def tr_pi_moment(
    X: np.ndarray,
    V: np.ndarray,
    rng: np.random.Generator,
    m_eval: int = _DEFAULT_M_EVAL,
    density_floor: float = 25.0,
) -> TraceMoment:
    """Paired estimate of E[Tr Pi(X)] = E|Xdot|^2 - E|v(X)|^2 at one slice."""
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise NonFiniteDataError("trace moment needs finite slice arrays")
    idx, vhat, eff = _subsample_velocity(X, V, rng, m_eval)
    diff = np.sum(V[idx] ** 2, axis=1) - np.sum(vhat**2, axis=1)
    return TraceMoment(float(np.mean(diff)), float(np.mean(eff < density_floor)))


def _spec_digest(spec: ProcessSpec, n: int, seed: int) -> dict:
    return {
        "alpha": spec.alpha.name,
        "beta": spec.beta.name,
        "gamma": spec.gamma.name if spec.gamma is not None else None,
        "coupling": spec.coupling.kind,
        "dim": spec.dim,
        "n": int(n),
        "seed": int(seed),
    }


def _estimated_balance_relative(
    spec: ProcessSpec, endpoints: EndpointArrays, t: float, cfg: estimate.KernelConfig
) -> float:
    """Balance-law residual on estimated fields at one slice (reported metric)."""
    X, V, A = slice_state(spec, endpoints, t)
    grid = calculus.make_spatial_grid(list(zip(*calculus.quantile_box(X))), 60)
    fields = estimate.fields_on_grid(X, V, A, grid, cfg, t)
    rep = calculus.balance_residual(fields["rho"], fields["Pi"], fields["a"], order=2)
    return float(rep.relative)


def affine_straightness_check(
    spec: ProcessSpec,
    n: int,
    seed: int,
    time_nodes=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    cfg: estimate.KernelConfig | None = None,
) -> TheoremReport:
    """Deterministic-coupling test for affine interpolants.

    Measures (i) the integrated-trace moment at interior times against a
    permuted-pairing control, (ii) the balance-law residual on estimated
    fields, (iii) flow straightness indicators.  The verdict keys off (i): a
    deterministic coupling keeps the trace at the estimator noise floor,
    which the control puts two orders higher.
    """
    if not spec.is_affine:
        raise InvalidArgumentError("affine_straightness_check needs the affine spec")
    cfg = cfg or estimate.KernelConfig()
    endpoints = sample_endpoints(spec, n, seed)
    perm = aux_rng(seed, 1).permutation(n)
    control = EndpointArrays(endpoints.x0, endpoints.x1[perm], None, endpoints.seed)

    metrics: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    low_fractions = []
    consistent = True
    for k, t in enumerate(time_nodes):
        X, V, _ = slice_state(spec, endpoints, float(t))
        Xc, Vc, _ = slice_state(spec, control, float(t))
        tp = tr_pi_moment(X, V, aux_rng(seed, 100 + k), density_floor=cfg.density_floor)
        tpc = tr_pi_moment(Xc, Vc, aux_rng(seed, 100 + k), density_floor=cfg.density_floor)
        thr = 0.05 * max(tpc.value, 0.0) + 1e-12
        metrics[f"tr_pi@{t:g}"] = tp.value
        metrics[f"tr_pi_control@{t:g}"] = tpc.value
        thresholds[f"tr_pi@{t:g}"] = thr
        low_fractions.append(tp.low_density_fraction)
        if tp.value > thr:
            consistent = False

    try:
        metrics["balance_relative_estimated"] = _estimated_balance_relative(
            spec, endpoints, 0.5, cfg
        )
    except StraightflowError:
        metrics["balance_relative_estimated"] = float("nan")

    notes = ""
    try:
        gspec = from_process_spec(spec)
        oracle = flow.analytic_velocity_oracle(gspec)
        points = spec.coupling.mu0.draw(aux_rng(seed, 3), 64)
        result = flow.flow_map(oracle, points, make_time_grid(100), "rk4")
        devs = [flow.straightness_deviation(tr) for tr in result.trajectories]
        metrics["chord_dev_max"] = max(d.chord_dev for d in devs)
        metrics["second_diff_max"] = max(d.second_diff for d in devs)
        metrics["one_step_max"] = flow.one_step_error(oracle, points).max_error
    except CapabilityError:
        notes = "coupling not Gaussian-expressible; flow indicators skipped"

    low_fraction = float(np.mean(low_fractions))
    metrics["low_density_fraction"] = low_fraction
    thresholds["low_density_fraction"] = _LOW_DENSITY_FRACTION
    if low_fraction > _LOW_DENSITY_FRACTION:
        verdict = "inconclusive"
    else:
        verdict = "consistent" if consistent else "violated"
    return TheoremReport(
        name="affine_straightness",
        inputs=_spec_digest(spec, n, seed),
        metrics=metrics,
        thresholds=thresholds,
        verdict=verdict,
        notes=notes or "verdict keyed to the trace moment staying under 0.05 x control at all times",
    )


def geometric_report(
    ensemble: PathEnsemble,
    t_index: int,
    density_floor: float = 25.0,
) -> TheoremReport:
    """Radial-acceleration / trace identity report at one time slice.

    Reports E[X . Xddot], -E[Tr Pi] via the moment identity, the second time
    derivative of E|X|^2 assembled as 2 E[X . Xddot] + 2 E|Xdot|^2, and the
    two inequality margins.  The identity gap and the inequalities are
    consistency checks conditioned on the process satisfying the straightness
    balance law; a large gap means that law fails, not a broken estimator.
    """
    X = ensemble.positions[:, t_index, :]
    V = ensemble.velocities[:, t_index, :]
    A = ensemble.accelerations[:, t_index, :]
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V)) and np.all(np.isfinite(A))):
        raise NonFiniteDataError("geometric report needs finite slice arrays")
    n = X.shape[0]
    idx, vhat, eff = _subsample_velocity(X, V, aux_rng(ensemble.seed, 200 + t_index),
                                         _DEFAULT_M_EVAL)
    m = idx.size

    xa = np.sum(X * A, axis=1)
    v2 = np.sum(V**2, axis=1)
    m_xa = float(np.mean(xa))
    m_v2 = float(np.mean(v2))
    vhat2 = np.sum(vhat**2, axis=1)
    tr_pi = float(np.mean(v2[idx] - vhat2))
    # identity gap = E[X . Xddot] + E Tr Pi.  The standard error treats the
    # moment terms and the regression term as independent; the conservative
    # form leaves headroom for the kernel smoothing bias, which a paired
    # variance would not cover.
    q1 = xa[idx] + v2[idx]
    gap = float(np.mean(q1) - np.mean(vhat2))
    if m > 1:
        se_gap = float(np.sqrt(np.var(q1, ddof=1) / m + np.var(vhat2, ddof=1) / m))
    else:
        se_gap = float("inf")
    dtt_norm2 = 2.0 * m_xa + 2.0 * m_v2

    metrics = {
        "radial_acceleration": m_xa,
        "neg_tr_pi": -tr_pi,
        "tr_pi": tr_pi,
        "mean_speed2": m_v2,
        "dtt_norm2": dtt_norm2,
        "identity_gap": gap,
        "identity_gap_se": se_gap,
        "ineq_radial_margin": -m_xa,  # >= 0 iff E[X . Xddot] <= 0
        "ineq_dtt_margin": 2.0 * m_v2 - dtt_norm2,  # >= 0 iff second inequality holds
        "low_density_fraction": float(np.mean(eff < density_floor)),
    }
    scale = max(m_v2, abs(m_xa), 1e-12)
    thresholds = {"identity_gap": 3.0 * se_gap, "scale": scale}
    if 3.0 * se_gap > 0.5 * scale or metrics["low_density_fraction"] > _LOW_DENSITY_FRACTION:
        verdict = "inconclusive"
    elif abs(gap) <= 3.0 * se_gap:
        verdict = "consistent"
    else:
        verdict = "violated"
    return TheoremReport(
        name="geometric_constraints",
        inputs={
            "n": n,
            "seed": int(ensemble.seed),
            "dim": ensemble.dim,
            "t": float(ensemble.grid.nodes[t_index]),
        },
        metrics=metrics,
        thresholds=thresholds,
        verdict=verdict,
        notes=(
            "identity gap and inequality flags are consistency checks conditioned "
            "on the process satisfying the straightness balance law"
        ),
    )


def _recover_slice_coefficients(x0, x1, target):
    """Least-squares (c0, c1) with target ~= c0 x0 + c1 x1; exact without a
    latent term, asymptotically exact with one."""
    design = np.stack([x0.ravel(), x1.ravel()], axis=1)
    sol, *_ = np.linalg.lstsq(design, target.ravel(), rcond=None)
    return float(sol[0]), float(sol[1])


def determinism_detector(
    ensemble: PathEnsemble, ratio: float = 0.05, density_floor: float = 25.0
) -> TheoremReport:
    """Decides whether the endpoint coupling behind an ensemble is deterministic.

    Integrates the trace moment over interior grid times (trapezoid) and
    compares with a shuffled-pairing control rebuilt from the ensemble's own
    endpoint slices; per-path latent contributions are preserved through the
    linear-coefficient residuals.

    When the endpoint pair is affinely dependent (x1 an affine image of x0)
    the coefficient split is unidentifiable and no endpoint-shuffle control
    exists; the control then shuffles the (position, velocity) pairing within
    each slice instead, which is the matching null for "velocity is a
    function of position".  The verdict is ``consistent`` when the trace
    integral is at most ``ratio`` times the control's.
    """
    grid = ensemble.grid
    if grid.n_nodes < 3:
        raise InvalidArgumentError("determinism detector needs interior time nodes")
    x0 = ensemble.positions[:, 0, :]
    x1 = ensemble.positions[:, -1, :]
    n = ensemble.n_paths
    perm = aux_rng(ensemble.seed, 2).permutation(n)
    design = np.stack([(x0 - x0.mean(0)).ravel(), (x1 - x1.mean(0)).ravel()], axis=1)
    svals = np.linalg.svd(design, compute_uv=False)
    endpoint_shuffle = svals[-1] > 1e-8 * max(svals[0], 1e-300)

    times = grid.nodes[1:-1]
    values, controls, lows = [], [], []
    for j, k in enumerate(range(1, grid.n_nodes - 1)):
        X = ensemble.positions[:, k, :]
        V = ensemble.velocities[:, k, :]
        tp = tr_pi_moment(
            X, V, aux_rng(ensemble.seed, 300 + k), _DETERMINISM_M_EVAL, density_floor
        )
        if endpoint_shuffle:
            a_k, b_k = _recover_slice_coefficients(x0, x1, X)
            ad_k, bd_k = _recover_slice_coefficients(x0, x1, V)
            r_pos = X - a_k * x0 - b_k * x1
            r_vel = V - ad_k * x0 - bd_k * x1
            Xc = a_k * x0 + b_k * x1[perm] + r_pos
            Vc = ad_k * x0 + bd_k * x1[perm] + r_vel
        else:
            Xc, Vc = X, V[perm]
        tpc = tr_pi_moment(
            Xc, Vc, aux_rng(ensemble.seed, 300 + k), _DETERMINISM_M_EVAL, density_floor
        )
        values.append(max(tp.value, 0.0))
        controls.append(max(tpc.value, 0.0))
        lows.append(tp.low_density_fraction)

    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 compat
    integral = float(trapezoid(values, times)) if len(times) > 1 else float(values[0])
    control_integral = (
        float(trapezoid(controls, times)) if len(times) > 1 else float(controls[0])
    )
    measured = integral / max(control_integral, 1e-30)
    low_fraction = float(np.mean(lows))

    metrics = {
        "tr_pi_integral": integral,
        "control_integral": control_integral,
        "ratio": measured,
        "low_density_fraction": low_fraction,
        "endpoint_shuffle_control": float(endpoint_shuffle),
    }
    report_thresholds = {
        "ratio": float(ratio),
        "low_density_fraction": _LOW_DENSITY_FRACTION,
    }
    if low_fraction > _LOW_DENSITY_FRACTION:
        verdict = "inconclusive"
    else:
        verdict = "consistent" if measured <= ratio else "violated"
    return TheoremReport(
        name="determinism_detector",
        inputs={"n": n, "seed": int(ensemble.seed), "dim": ensemble.dim, "k_interior": len(times)},
        metrics=metrics,
        thresholds=report_thresholds,
        verdict=verdict,
        notes="consistent means deterministic-coupling-consistent (trace integral at control noise floor)",
    )
