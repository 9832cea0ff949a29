"""Theorem-level harnesses composing sampling, kernel regression and flows.

Every harness takes the process spec and its sampled endpoints and slices
them at the times it needs.  The two trace harnesses (affine straightness
and the determinism detector) calibrate their verdicts against one control:
the same endpoints with the x1 rows permuted, sliced at the same times and
subsampled from the same stream; the estimators are biased, so only such
relative statements are decidable.  Both take their data and control
moments from one series, :func:`_trace_series`.  The geometric report
draws no control: its verdict compares the identity gap with three
standard errors.

The trace of the Reynolds tensor is integrated through the moment identity
E[Tr Pi(X)] = E|Xdot|^2 - E|v(X)|^2 (law of total variance), estimated over
a seeded subsample of sample rows.  The trace harnesses take E|v(X)|^2 from
the nearest-neighbour cross term, the mean of V_i . V_nn(i) with nn(i) the
nearest other sample row (Devroye, Gyorfi, Lugosi & Walk, EJS 12, 2018).  It
needs no bandwidth and its bias vanishes with the nearest-neighbour
distance: measured on the 2-D affine OT coupling at n = 2e4, the trace reads
4e-4 to 1.3e-3 of its permuted control (seeds 1-29), where a kernel
regression at half the Silverman bandwidth read about 1e-2.  The geometric
report takes the same term, and its standard error is that of the per-row
gap, X_i . Xddot_i + V_i . (V_i - V_nn(i)), so the dependence between the
moment terms and the cross term is paired away.

Every harness takes one ``density_floor``.  A subsampled point counts as
low-density when fewer than that many sample rows lie within the radius
whose ball has the volume of the Gaussian kernel at half the Silverman
bandwidth, and a harness whose low-density fraction exceeds
``_LOW_DENSITY_FRACTION`` is inconclusive whatever it measured.  The search
counts each row only to floor(density_floor) + 1, all the flag needs.  No
verdict reads a control's fraction, nor does ``sweep``: they pass a floor of
0 and count nothing beyond the rows the cell geometry alone decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimate, flow, neighbours
from .core import (
    COEFFICIENTS,
    EndpointArrays,
    ProcessSpec,
    aux_rng,
    slice_state,
    time_nodes,
)
from .errors import CapabilityError, InvalidArgumentError, NonFiniteDataError

__all__ = [
    "TheoremReport",
    "affine_straightness_check",
    "geometric_report",
    "determinism_detector",
    "tr_pi_moment",
]

# Times the Silverman bandwidth: the bandwidth whose kernel volume sizes every
# harness's density gate.
_TRACE_BANDWIDTH_FACTOR = 0.5
_DEFAULT_M_EVAL = 4096
_DETERMINISM_M_EVAL = 2048
_LOW_DENSITY_FRACTION = 0.2
_TRACE_RATIO = 0.05  # the share of its control under which a trace reads as deterministic


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


@dataclass(frozen=True)
class TraceMoment:
    value: float
    low_density_fraction: float


def _count_radius(h: float, d: int) -> float:
    """The radius whose d-ball has the volume (2 pi)^(d/2) h^d of the Gaussian
    kernel of bandwidth ``h``: 1.2533 h in 1-D, sqrt(2) h in 2-D."""
    ball = np.pi ** (d / 2) / math.gamma(d / 2 + 1)
    return h * np.sqrt(2 * np.pi) / ball ** (1 / d)


def _trace_terms(X: np.ndarray, V: np.ndarray, idx: np.ndarray, density_floor: float):
    """Per sample row of ``idx``: the trace term V_i . (V_i - V_nn(i)), nn(i)
    the nearest other sample row, and whether the row is low-density (fewer
    than ``density_floor`` sample rows within ``_count_radius`` of half the
    Silverman bandwidth), counted no further than that decides."""
    h = estimate.silverman_bandwidth_from(X) * _TRACE_BANDWIDTH_FACTOR
    cap = math.floor(min(density_floor, 2.0**62)) + 1
    _, near, count = neighbours.nearest_and_count(X, idx, _count_radius(h, X.shape[1]), cap)
    return np.sum(V[idx] * (V[idx] - V[near]), axis=1), count < density_floor


def tr_pi_moment(
    X: np.ndarray,
    V: np.ndarray,
    rng: np.random.Generator,
    m_eval: int = _DEFAULT_M_EVAL,
    density_floor: float = 25.0,
) -> TraceMoment:
    """Estimate of E[Tr Pi(X)] = E|Xdot|^2 - E|v(X)|^2 at one slice: the mean
    of the trace terms (``_trace_terms``) over a seeded subsample of
    ``m_eval`` sample rows (all rows when fewer), and the fraction of them
    with fewer than ``density_floor`` rows near; a floor of 0 counts least."""
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
        raise NonFiniteDataError("trace moment needs finite slice arrays")
    n = X.shape[0]
    idx = rng.choice(n, size=min(int(m_eval), n), replace=False)
    terms, low = _trace_terms(X, V, idx, density_floor)
    return TraceMoment(float(np.mean(terms)), float(np.mean(low)))


def _permuted_control(endpoints: EndpointArrays, tag: int) -> EndpointArrays:
    """The control ensemble: the x1 rows permuted by the ``tag`` stream, x0
    and the latent kept."""
    perm = aux_rng(endpoints.seed, tag).permutation(endpoints.n)
    return EndpointArrays(endpoints.x0, endpoints.x1[perm], endpoints.z, endpoints.seed)


def _trace_series(spec: ProcessSpec, endpoints: EndpointArrays, control_tag: int, times,
                  first_tag: int, m_eval: int, density_floor: float):
    """Trace moments at each of ``times`` of the data and of its control,
    the endpoints with the x1 rows permuted by the ``control_tag`` stream.
    At the k-th time the data, then the control, is sliced and subsampled
    from the ``first_tag + k`` stream.  Returns the data values, the control
    values and the data's low-density fractions; no verdict reads the
    control's fraction, so its search takes a floor of 0."""
    control = _permuted_control(endpoints, control_tag)
    moments = np.empty((len(times), 2, 2))  # (time, data | control, value | low fraction)
    for k, t in enumerate(times):
        for j, (ens, floor) in enumerate(((endpoints, density_floor), (control, 0.0))):
            X, V, _ = slice_state(spec, ens, float(t))
            tp = tr_pi_moment(X, V, aux_rng(endpoints.seed, first_tag + k), m_eval, floor)
            moments[k, j] = tp.value, tp.low_density_fraction
    return moments[:, 0, 0], moments[:, 1, 0], moments[:, 0, 1]


def _spec_digest(spec: ProcessSpec, endpoints: EndpointArrays) -> dict:
    alpha, beta, gamma = COEFFICIENTS[spec.coefficients]
    return {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "coupling": spec.coupling.kind,
        "dim": spec.dim,
        "n": endpoints.n,
        "seed": int(endpoints.seed),
    }


def _verdict(low_fraction: float, passed: bool, undecided: bool = False) -> str:
    """``inconclusive`` when more than ``_LOW_DENSITY_FRACTION`` of the points
    are low-density or the harness cannot decide (``undecided``), else
    ``consistent`` or ``violated`` as the measurement ``passed`` or not."""
    if undecided or low_fraction > _LOW_DENSITY_FRACTION:
        return "inconclusive"
    return "consistent" if passed else "violated"


def affine_straightness_check(
    spec: ProcessSpec,
    endpoints: EndpointArrays,
    time_nodes=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    density_floor: float = 25.0,
) -> TheoremReport:
    """Deterministic-coupling test for affine interpolants.

    Measures (i) the integrated-trace moment at interior times against a
    permuted-pairing control and (ii) flow straightness indicators of the
    Gaussian oracle's flow.  The verdict keys off (i): a deterministic
    coupling keeps the trace at the estimator noise floor, which the control
    puts two orders higher.  The straightness balance law needs no metric
    here: affine interpolants have zero acceleration, so it reduces to
    div(rho Pi) = 0, which a deterministic coupling (Pi = 0) meets exactly.
    """
    if spec.coefficients != "affine":
        raise InvalidArgumentError("affine_straightness_check needs the affine spec")
    values, controls, lows = _trace_series(
        spec, endpoints, 1, time_nodes, 100, _DEFAULT_M_EVAL, density_floor
    )
    limits = _TRACE_RATIO * np.maximum(controls, 0.0) + 1e-12
    metrics: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    for t, value, control, limit in zip(time_nodes, values, controls, limits):
        metrics[f"tr_pi@{t:g}"] = value
        metrics[f"tr_pi_control@{t:g}"] = control
        thresholds[f"tr_pi@{t:g}"] = limit

    notes = ""
    try:
        oracle = flow.analytic_velocity_oracle(spec)
        points = spec.coupling.mu0.draw(aux_rng(endpoints.seed, 3), 64)
        result = flow.flow_map(oracle, points, 100)
        dev = flow.straightness_deviation(result.states[result.kept])
        metrics["chord_dev_max"] = float(dev.chord_dev.max())
        metrics["second_diff_max"] = float(dev.second_diff.max())
        metrics["one_step_max"] = flow.one_step_error(oracle, points).max_error
    except CapabilityError:
        notes = "coupling not Gaussian-expressible; flow indicators skipped"

    low_fraction = float(np.mean(lows))
    metrics["low_density_fraction"] = low_fraction
    thresholds["low_density_fraction"] = _LOW_DENSITY_FRACTION
    return TheoremReport(
        name="affine_straightness",
        inputs=_spec_digest(spec, endpoints),
        metrics=metrics,
        thresholds=thresholds,
        verdict=_verdict(low_fraction, not np.any(values > limits)),
        notes=notes or (f"verdict keyed to the trace moment staying under {_TRACE_RATIO:g} x "
                        "control at all times"),
    )


def geometric_report(
    spec: ProcessSpec,
    endpoints: EndpointArrays,
    steps: int,
    t_index: int,
    density_floor: float = 25.0,
) -> TheoremReport:
    """Radial-acceleration / trace identity report at time node ``t_index`` of
    ``time_nodes(steps)``.

    Reports E[X . Xddot], -E[Tr Pi] via the moment identity, the second time
    derivative of E|X|^2 assembled as 2 E[X . Xddot] + 2 E|Xdot|^2, and the
    two inequality margins.  The identity gap and the inequalities are
    consistency checks conditioned on the process satisfying the straightness
    balance law; a large gap means that law fails, not a broken estimator.
    """
    t = float(time_nodes(steps)[t_index])
    X, V, A = slice_state(spec, endpoints, t)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V)) and np.all(np.isfinite(A))):
        raise NonFiniteDataError("geometric report needs finite slice arrays")
    n = X.shape[0]
    m = min(_DEFAULT_M_EVAL, n)
    idx = aux_rng(endpoints.seed, 200 + t_index).choice(n, size=m, replace=False)
    terms, low = _trace_terms(X, V, idx, density_floor)

    xa = np.sum(X * A, axis=1)
    m_xa = float(np.mean(xa))
    m_v2 = float(np.mean(np.sum(V**2, axis=1)))
    tr_pi = float(np.mean(terms))
    # identity gap = E[X . Xddot] + E Tr Pi, averaged row by row so that its
    # standard error is the paired one of the per-row gap
    rows = xa[idx] + terms
    gap = float(np.mean(rows))
    se_gap = float(np.std(rows, ddof=1) / np.sqrt(m))
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
        "low_density_fraction": float(np.mean(low)),
    }
    scale = max(m_v2, abs(m_xa), 1e-12)
    thresholds = {"identity_gap": 3.0 * se_gap, "scale": scale}
    verdict = _verdict(
        metrics["low_density_fraction"], abs(gap) <= 3.0 * se_gap,
        undecided=3.0 * se_gap > 0.5 * scale,
    )
    return TheoremReport(
        name="geometric_constraints",
        inputs={"n": endpoints.n, "seed": int(endpoints.seed), "dim": spec.dim, "t": t},
        metrics=metrics,
        thresholds=thresholds,
        verdict=verdict,
        notes=(
            "identity gap and inequality flags are consistency checks conditioned "
            "on the process satisfying the straightness balance law"
        ),
    )


def determinism_detector(
    spec: ProcessSpec,
    endpoints: EndpointArrays,
    steps: int,
    density_floor: float = 25.0,
) -> TheoremReport:
    """Decides whether the endpoint coupling behind an ensemble is deterministic.

    Integrates the trace moment over the interior nodes of
    ``time_nodes(steps)`` (trapezoid) and compares with the permuted-pairing
    control.  The verdict is ``consistent`` when the trace integral is at
    most ``_TRACE_RATIO`` times the control's.
    """
    nodes = time_nodes(steps)
    if steps < 2:
        raise InvalidArgumentError("determinism detector needs interior time nodes")
    times = nodes[1:-1]
    # interior node k >= 1 subsamples from stream 300 + k
    values, controls, lows = _trace_series(
        spec, endpoints, 2, times, 301, _DETERMINISM_M_EVAL, density_floor
    )
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 compat
    integral, control_integral = (
        float(trapezoid(ys, times)) if len(times) > 1 else float(ys[0])
        for ys in (np.maximum(values, 0.0), np.maximum(controls, 0.0))
    )
    measured = integral / max(control_integral, 1e-30)
    low_fraction = float(np.mean(lows))

    metrics = {
        "tr_pi_integral": integral,
        "control_integral": control_integral,
        "ratio": measured,
        "low_density_fraction": low_fraction,
    }
    report_thresholds = {
        "ratio": _TRACE_RATIO,
        "low_density_fraction": _LOW_DENSITY_FRACTION,
    }
    return TheoremReport(
        name="determinism_detector",
        inputs={
            "n": endpoints.n, "seed": int(endpoints.seed), "dim": spec.dim,
            "k_interior": len(times),
        },
        metrics=metrics,
        thresholds=report_thresholds,
        verdict=_verdict(low_fraction, measured <= _TRACE_RATIO),
        notes="consistent means deterministic-coupling-consistent (trace integral at control noise floor)",
    )
