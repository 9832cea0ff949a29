"""Probability-flow ODE integration, straightness metrics, and the energy
distance used to check marginal transport.

A velocity oracle is any (t, x) -> v evaluator; constructors are provided for
the analytic Gaussian fields and for kernel regression on sampled endpoints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import calculus, estimate
from .core import EndpointArrays, ProcessSpec, TimeGrid, make_time_grid, slice_state
from .errors import (
    InvalidArgumentError,
    LowDensityError,
    NonFiniteDataError,
    TrajectoryLeftSupportError,
)
from .gaussian import GaussianProcessSpec, _conditional_model

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
    "energy_distance",
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


def analytic_velocity_oracle(spec: GaussianProcessSpec) -> VelocityOracle:
    # the conditional model is built once per t: RK stages share t + h/2, and a
    # step ends at the time the next one starts from
    model_at = functools.lru_cache(maxsize=4)(functools.partial(_conditional_model, spec))
    return VelocityOracle(lambda t, x: model_at(float(t))(x))


def kernel_velocity_oracle(
    spec: ProcessSpec, endpoints: EndpointArrays, grid: TimeGrid, cfg: estimate.KernelConfig
) -> VelocityOracle:
    """Nadaraya-Watson velocity oracle over the endpoints sliced at the nodes
    of ``grid``; a node is sliced when a query first needs it.

    Off-node times are handled by linear interpolation between the bracketing
    slices.  Queries outside the per-axis 1%/99% quantile box of the
    bracketing slices (:func:`calculus.quantile_box`) are clamped to it and
    counted as excursions; query points whose effective n still falls under
    the density floor in either slice are refused with a LowDensityError
    that lists their rows.  A slice whose sampled velocities are not finite
    (a latent process at t = 0 or 1) raises NonFiniteDataError.
    """
    nodes = grid.nodes
    stats = OracleStats()
    cache: dict[int, tuple] = {}

    def slice_data(k: int):
        if k not in cache:
            X, V, _ = slice_state(spec, endpoints, nodes[k])
            if not np.all(np.isfinite(V)):
                raise NonFiniteDataError(
                    f"sampled velocities at t={nodes[k]:.6g} are not finite; "
                    "the kernel oracle cannot regress on them"
                )
            lo, hi = calculus.quantile_box(X)
            h = estimate.resolve_bandwidth(cfg, X)
            # sorted on axis 0 once, so nw_regress skips its sort on every
            # query, and stored one axis after the other, as nw_regress reads it
            order = np.argsort(X[:, 0], kind="stable")
            cache[k] = (np.asfortranarray(X[order]), V[order], lo, hi, h)
        return cache[k]

    def eval_slice(k: int, pts: np.ndarray):
        X, V, lo, hi, h = slice_data(k)
        clamped = np.clip(pts, lo, hi)
        stats.excursions += int(np.sum(np.any(clamped != pts, axis=-1)))
        return estimate.nw_regress(X, V, clamped, h)

    def evaluate(t: float, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        k = int(np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 1))
        w = 0.0 if k >= len(nodes) - 1 else (t - nodes[k]) / (nodes[k + 1] - nodes[k])
        out, eff = eval_slice(k, pts)
        if w > 0:
            out_next, eff_next = eval_slice(k + 1, pts)
            out = (1.0 - w) * out + w * out_next
            eff = np.minimum(eff, eff_next)
        bad = eff < cfg.density_floor
        if np.any(bad):
            raise LowDensityError(
                f"effective_n {eff[bad].min():.3g} below floor {cfg.density_floor} at t={t:.6g}",
                float(eff[bad].min()), rows=np.flatnonzero(bad),
            )
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


def _march(oracle: VelocityOracle, points, grid: TimeGrid, scheme: str, history: bool = True):
    """The stepping loop: all (M, d) start points advance together on the grid.

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
    nodes = grid.nodes
    keep = grid.n_nodes if history else 1
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
    while k < grid.n_nodes - 1 and ids.size:
        t, h = float(nodes[k]), float(nodes[k + 1] - nodes[k])
        excursions = oracle.stats.excursions
        try:
            X_next = _step(oracle, t, X, h, scheme)
        except LowDensityError as err:
            # the step is redone for the other points and counts their queries again
            oracle.stats.excursions = excursions
            refused = np.zeros(ids.size, dtype=bool)
            refused[slice(None) if err.rows is None or len(err.rows) == 0 else err.rows] = True
            kept = min(k + 1, keep)  # the nodes up to k that `states` still holds
            stop(refused, lambda i: TrajectoryLeftSupportError(
                f"flow left the oracle support at t={t:.6g}: {err}",
                times=nodes[k + 1 - kept : k + 1].copy(),
                states=states[i, :kept].copy(),
            ))
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


def flow_map(
    oracle: VelocityOracle, points, grid: TimeGrid, scheme: str = "rk4"
) -> FlowMapResult:
    """Integrate all points together along the grid; order is preserved and
    per-point errors are collected: a TrajectoryLeftSupportError with the
    partial trajectory for a refused point, an InvalidArgumentError for a
    non-finite state."""
    states, errors = _march(oracle, points, grid, scheme)
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


def straightness_deviation(states: np.ndarray, grid: TimeGrid) -> StraightnessDeviation:
    """Deviation from the chord and the discrete second time derivative of
    each trajectory of the (M, K, d) ``states`` on ``grid``."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1] != grid.n_nodes:
        raise InvalidArgumentError("states must have shape (n_points, n_nodes, d)")
    if grid.n_nodes < 3:
        raise InvalidArgumentError("straightness needs at least 3 nodes")
    t = grid.nodes[:, None]
    step = grid.step
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


def one_step_error(
    oracle: VelocityOracle,
    points,
    reference_scheme: str = "rk4",
    reference_steps: int = 400,
) -> OneStepSummary:
    """|single-Euler-step endpoint - reference endpoint| per starting point.

    The reference is sized by step doubling (see _FIRST_REFERENCE_STEPS);
    ``reference_steps`` caps its step count.  A point whose Euler step or
    reported reference run fails gets error NaN and is left out of max and
    rms; LowDensityError is raised only when every point fails.
    """
    euler, euler_errors = _march(oracle, points, make_time_grid(1), "euler", history=False)

    def reference(steps: int):
        ref, ref_errors = _march(
            oracle, points, make_time_grid(steps), reference_scheme, history=False
        )
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


# ---------------------------------------------------------------------------
# energy distance
# ---------------------------------------------------------------------------

def _mean_cross_1d(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    prefix = np.concatenate([[0.0], np.cumsum(b)])
    k = np.searchsorted(b, a, side="right")
    total = np.sum(a * (2 * k - b.size) - 2 * prefix[k] + prefix[-1])
    return float(total / (a.size * b.size))


def _mean_within_1d(a: np.ndarray) -> float:
    a = np.sort(a)
    n = a.size
    j = np.arange(n)
    return float(2.0 * np.sum(a * (2 * j - (n - 1))) / (n * n))


def _mean_cross_nd(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    step = max(1, (1 << 22) // max(b.shape[0], 1))
    for i0 in range(0, a.shape[0], step):
        chunk = a[i0 : i0 + step]
        d2 = np.sum((chunk[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        total += float(np.sum(np.sqrt(d2)))
    return total / (a.shape[0] * b.shape[0])


def energy_distance(sample_a, sample_b) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    Exact O(n log n) path in one dimension, chunked pairwise otherwise.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.size == 0 or b.size == 0:
        raise InvalidArgumentError("energy distance needs nonempty samples")
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError("samples must share a dimension")
    if a.shape[1] == 1:
        av, bv = a[:, 0], b[:, 0]
        return 2.0 * _mean_cross_1d(av, bv) - _mean_within_1d(av) - _mean_within_1d(bv)
    return (
        2.0 * _mean_cross_nd(a, b) - _mean_cross_nd(a, a) - _mean_cross_nd(b, b)
    )
