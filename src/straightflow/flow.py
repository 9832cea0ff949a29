"""Probability-flow ODE integration and straightness metrics.

A velocity oracle is any (t, x) -> v evaluator; constructors are provided for
the analytic Gaussian fields and for kernel regression on sampled endpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import calculus, estimate
from .core import EndpointArrays, ProcessSpec, slice_state, time_nodes
from .errors import (
    InvalidArgumentError,
    LowDensityError,
    NonFiniteDataError,
    TrajectoryLeftSupportError,
)
from .gaussian import _conditional_model, _endpoint_blocks

__all__ = [
    "VelocityOracle",
    "FlowMapResult",
    "StraightnessDeviation",
    "OneStepSummary",
    "analytic_velocity_oracle",
    "kernel_velocity_oracle",
    "flow_map",
    "straightness_deviation",
    "one_step_error",
]

_SCHEMES = ("euler", "midpoint", "rk4")


@dataclass
class OracleStats:
    """Mutable counters; `excursions` counts queries clamped back into the box."""

    excursions: int = 0


@dataclass(frozen=True)
class VelocityOracle:
    """Evaluator contract (t, x) -> v_t(x); accepts x of shape (d,) or (M, d).

    An evaluator may refuse query points by raising LowDensityError with
    their ``rows`` (all of them when ``rows`` is None); the stepping loop
    stops those points and carries on with the rest.
    """

    evaluate: Callable[[float, np.ndarray], np.ndarray]
    stats: OracleStats = field(default_factory=OracleStats)

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.evaluate(t, x)


# The analytic oracle keeps the velocity's terms at the last _ORACLE_TIMES
# times it was asked for: RK stages share t + h/2, a step ends at the time the
# next one starts from, and each one-step reference run revisits the times of
# the run before it (the 401 times of a 200-step run before a 400-step one,
# the default cap).
_ORACLE_TIMES = 1024


def analytic_velocity_oracle(spec: ProcessSpec) -> VelocityOracle:
    """The Gaussian oracle's velocity; a coupling that is not jointly Gaussian
    is refused with CapabilityError here, before any step."""
    blocks = _endpoint_blocks(spec)

    @functools.lru_cache(maxsize=_ORACLE_TIMES)
    def velocity_at(t: float):
        model = _conditional_model(spec, blocks, t)
        return model.mean, model.Ev, model.Jv.T

    def evaluate(t, x):
        mean, Ev, Jv_T = velocity_at(float(t))
        return Ev + (np.asarray(x, dtype=float) - mean) @ Jv_T

    return VelocityOracle(evaluate)


def kernel_velocity_oracle(
    spec: ProcessSpec, endpoints: EndpointArrays, cfg: estimate.KernelConfig
) -> VelocityOracle:
    """Nadaraya-Watson velocity oracle over the endpoints sliced at the
    query's own time t: the velocity ``fields --source estimate`` reports at t.

    Queries outside the per-axis 1%/99% quantile box of that slice
    (:func:`calculus.quantile_box`) are clamped to it and counted as
    excursions; query points whose effective n still falls under the density
    floor, or is zero, are refused (``cfg.admits``) with a LowDensityError
    that lists their rows.  A slice whose sampled velocities are not finite
    (a latent process at t = 0 or 1) raises NonFiniteDataError.
    """
    stats = OracleStats()

    # a slice is taken once per t: RK stages share t + h/2, and a step ends at
    # the time the next one starts from
    @functools.lru_cache(maxsize=4)
    def slice_at(t: float):
        X, V, _ = slice_state(spec, endpoints, t)
        if not np.all(np.isfinite(V)):
            raise NonFiniteDataError(
                f"sampled velocities at t={t:.6g} are not finite; "
                "the kernel oracle cannot regress on them"
            )
        lo, hi = calculus.quantile_box(X)
        h = estimate.resolve_bandwidth(cfg, X)
        # sorted on axis 0 once, so nw_regress skips its sort on every query,
        # and stored one axis after the other, as nw_regress reads it
        order = estimate.stable_argsort(X[:, 0])
        return np.asfortranarray(X[order]), V[order], lo, hi, h

    def evaluate(t: float, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        X, V, lo, hi, h = slice_at(float(t))
        clamped = np.clip(pts, lo, hi)
        stats.excursions += int(np.sum(np.any(clamped != pts, axis=-1)))
        out, eff = estimate.nw_regress(X, V, clamped, h)
        bad = ~cfg.admits(eff)
        if np.any(bad):
            low = eff[bad].min()
            # at a floor of 0 the only refused effective n is 0
            why = (f"effective_n {low:.3g} below floor {cfg.density_floor}"
                   if low < cfg.density_floor else "no sample weighs a query point")
            raise LowDensityError(f"{why} at t={t:.6g}", rows=np.flatnonzero(bad))
        return out[0] if single else out

    return VelocityOracle(evaluate, stats)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _step(oracle: VelocityOracle, t: float, x: np.ndarray, h: float, scheme: str) -> np.ndarray:
    if scheme == "euler":
        return x + h * oracle(t, x)
    if scheme == "midpoint":
        k1 = oracle(t, x)
        return x + h * oracle(t + h / 2, x + (h / 2) * k1)
    k1 = oracle(t, x)
    k2 = oracle(t + h / 2, x + (h / 2) * k1)
    k3 = oracle(t + h / 2, x + (h / 2) * k2)
    k4 = oracle(t + h, x + h * k3)
    return x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(oracle: VelocityOracle, points, steps: int, scheme: str, history: bool = True):
    """The stepping loop: all (M, d) start points advance together through
    ``steps`` uniform steps on [0, 1].

    A point whose oracle query is refused or whose state turns non-finite
    stops at its last node; the step is redone for the others.  Returns the
    states (M, K, d), NaN past each stopped point's last node, and the
    errors ``{index: error}`` of the stopped points.  Without ``history``
    only the current node is kept: the states are (M, 1, d), the last node
    of the points that reached it and NaN for the stopped ones.
    """
    if scheme not in _SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}; pick from {_SCHEMES}")
    X = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    nodes = time_nodes(steps)
    keep = nodes.size if history else 1
    states = np.full((X.shape[0], keep, X.shape[1]), np.nan)
    states[:, 0, :] = X
    ids = np.arange(X.shape[0])  # index of each row of X among the start points
    live = slice(None)  # the rows of `states` that X fills; `ids` once a point stopped
    errors: dict = {}

    def stop(mask: np.ndarray, make_error) -> None:
        nonlocal X, ids, live
        if not np.any(mask):
            return
        for i in ids[mask]:
            errors[int(i)] = make_error(int(i))
        X, ids = X[~mask], ids[~mask]
        live = ids

    k = 0
    while k < steps and ids.size:
        t, h = float(nodes[k]), float(nodes[k + 1] - nodes[k])
        excursions = oracle.stats.excursions
        try:
            X_next = _step(oracle, t, X, h, scheme)
        except LowDensityError as err:
            # the step is redone for the other points and counts their queries again
            oracle.stats.excursions = excursions
            refused = np.zeros(ids.size, dtype=bool)
            refused[slice(None) if err.rows is None or len(err.rows) == 0 else err.rows] = True
            message = f"flow left the oracle support at t={t:.6g}: {err}"
            stop(refused, lambda i: TrajectoryLeftSupportError(message))
            continue
        X = X_next
        stop(~np.all(np.isfinite(X), axis=1), lambda i: InvalidArgumentError(
            f"trajectory diverged to a non-finite state at t={nodes[k + 1]:.6g}"
        ))
        states[live, min(k + 1, keep - 1)] = X
        k += 1
    states[list(errors), -1] = np.nan
    return states, errors


@dataclass(frozen=True)
class FlowMapResult:
    """The (M, K, d) states of every start point, NaN past a failed point's
    last node, and the sorted ``(index, error)`` list of the failed points."""

    states: np.ndarray
    errors: list

    @property
    def kept(self) -> list[int]:
        """Indices of the points that reached the last node, in order."""
        failed = {i for i, _ in self.errors}
        return [i for i in range(self.states.shape[0]) if i not in failed]


def flow_map(oracle: VelocityOracle, points, steps: int, scheme: str = "rk4") -> FlowMapResult:
    """Integrate all points together through ``steps`` uniform steps on
    [0, 1]; order is preserved and per-point errors are collected: a
    TrajectoryLeftSupportError for a refused point, an InvalidArgumentError
    for a non-finite state.  A failed point's partial trajectory is its row
    of the states, NaN past its last node."""
    states, errors = _march(oracle, points, steps, scheme)
    return FlowMapResult(states, sorted(errors.items()))


# ---------------------------------------------------------------------------
# straightness metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StraightnessDeviation:
    """Per-trajectory figures, each of shape (M,)."""

    chord_dev: np.ndarray
    second_diff: np.ndarray


# straightness_deviation works through the points in blocks whose temporaries
# hold at most this many doubles (32 kB), so they never outgrow the states
# array and stay small heap blocks: larger ones raised the peak RSS of `flow`
_BLOCK_DOUBLES = 1 << 12


def straightness_deviation(states: np.ndarray) -> StraightnessDeviation:
    """Deviation from the chord and the discrete second time derivative of
    each trajectory of the (M, K, d) ``states`` on the K uniform time nodes
    of [0, 1]."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3:
        raise InvalidArgumentError("states must have shape (n_points, n_nodes, d)")
    if states.shape[1] < 3:
        raise InvalidArgumentError("straightness needs at least 3 nodes")
    steps = states.shape[1] - 1
    t = time_nodes(steps)[:, None]
    step = 1.0 / steps
    block = max(1, _BLOCK_DOUBLES // (states.shape[1] * states.shape[2]))
    chord_dev = np.empty(states.shape[0])
    second_diff = np.empty(states.shape[0])
    for i0 in range(0, states.shape[0], block):
        S = states[i0 : i0 + block]
        chord = (1.0 - t) * S[:, :1] + t * S[:, -1:]
        chord_dev[i0 : i0 + block] = np.linalg.norm(S - chord, axis=-1).max(axis=1)
        dd = S[:, 2:] - 2 * S[:, 1:-1] + S[:, :-2]
        second_diff[i0 : i0 + block] = np.linalg.norm(dd, axis=-1).max(axis=1) / step**2
    return StraightnessDeviation(chord_dev, second_diff)


@dataclass(frozen=True)
class OneStepSummary:
    errors: np.ndarray  # per point
    max_error: float
    rms_error: float
    reference_steps: int  # steps of the reference run the errors are taken against
    reference_gap: float | None  # its largest endpoint move from the run before; None if none


# Step doubling of the one-step reference: the first run takes
# _FIRST_REFERENCE_STEPS steps (or the cap, if smaller), and each next run
# twice as many, up to the cap.  Doubling stops once the largest endpoint move
# between the last two runs is at most _REFERENCE_RTOL x the largest one-step
# error + _REFERENCE_ATOL, both taken over the points that survive both runs;
# the absolute term lets a straight flow, whose one-step error is rounding
# noise, stop.
_FIRST_REFERENCE_STEPS = 25
_REFERENCE_RTOL = 1e-3
_REFERENCE_ATOL = 1e-9


def one_step_error(oracle: VelocityOracle, points, reference_steps: int = 400) -> OneStepSummary:
    """|single-Euler-step endpoint - RK4 reference endpoint| per starting point.

    The reference is sized by step doubling (see _FIRST_REFERENCE_STEPS);
    ``reference_steps`` caps its step count.  A point whose Euler step or
    reported reference run fails gets error NaN and is left out of max and
    rms; LowDensityError is raised only when every point fails.
    """
    euler, euler_errors = _march(oracle, points, 1, "euler", history=False)

    def reference(steps: int):
        ref, ref_errors = _march(oracle, points, steps, "rk4", history=False)
        return ref[:, 0, :], ref_errors

    steps = min(_FIRST_REFERENCE_STEPS, reference_steps)
    ref, ref_errors = reference(steps)
    gap = None
    while steps < reference_steps:
        prev = ref
        steps = min(2 * steps, reference_steps)
        ref, ref_errors = reference(steps)
        both = np.all(np.isfinite(prev), axis=1) & np.all(np.isfinite(ref), axis=1)
        if not np.any(both):
            gap = None
            continue
        gap = float(np.linalg.norm(ref[both] - prev[both], axis=1).max())
        err = np.linalg.norm(euler[both, 0, :] - ref[both], axis=1)
        scale = float(np.max(err, initial=0.0, where=np.isfinite(err)))
        if gap <= _REFERENCE_RTOL * scale + _REFERENCE_ATOL:
            break
    errs = np.linalg.norm(euler[:, 0, :] - ref, axis=1)
    ok = np.isfinite(errs)
    if not np.any(ok):
        first = next(iter({**euler_errors, **ref_errors}.values()), None)
        raise LowDensityError(f"one-step error: all {errs.size} points failed; first: {first}")
    return OneStepSummary(
        errs, float(errs[ok].max()), float(np.sqrt(np.mean(errs[ok] ** 2))), steps, gap
    )
