"""Closed-form ensemble fields for jointly Gaussian endpoint pairs.

When the endpoint pair (X0, X1) and the optional latent Z are jointly
Gaussian, (X_t, dX_t/dt, d2X_t/dt2) is jointly Gaussian too, so the
conditional velocity and acceleration are affine in x and the conditional
covariance is constant in x.  With a(t), b(t), g(t) the time coefficients and
S00, S01, S11 the endpoint covariance blocks:

    Cov(dX_t, X_t) = a' a S00 + a' b S01 + b' a S01^T + b' b S11 + g' g I

and the second-derivative analogue for Cov(d2X_t, X_t).  Everything here
derives from those block identities; the module is the ground truth against
which estimators and grid residuals are checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .core import AffineMap, Gaussian, ProcessSpec, _psd_sqrt, coefficient_values
from .errors import (
    CapabilityError,
    DegenerateMarginalError,
    InvalidArgumentError,
)

__all__ = [
    "MarginalMoments",
    "marginal_moments",
    "conditional_fields_batch",
    "velocity_at",
    "gaussian_ot_map",
    "oracle_box",
    "fields_on_grid",
]

_DEGENERACY_REL = 1e-12


def _endpoint_blocks(spec: ProcessSpec):
    """Means and covariance blocks (m0, m1, S00, S01, S11) of the endpoint
    pair, or CapabilityError when the pair is not jointly Gaussian.  The
    latent term, when present, has identity covariance and is independent of
    the endpoints."""
    cpl = spec.coupling
    if cpl.kind == "gaussian_joint":
        d = cpl.dim
        mean, cov = cpl.joint.mean, cpl.joint.cov
        return mean[:d], mean[d:], cov[:d, :d], cov[:d, d:], cov[d:, d:]
    if isinstance(cpl.mu0, Gaussian) and isinstance(cpl.mu1, Gaussian):
        m0, S0 = cpl.mu0.mean, cpl.mu0.cov
        if cpl.kind == "independent":
            return m0, cpl.mu1.mean, S0, np.zeros((spec.dim, spec.dim)), cpl.mu1.cov
        if cpl.kind == "deterministic_map" and cpl.map is not None:
            A, b = cpl.map.A, cpl.map.b
            return m0, A @ m0 + b, S0, S0 @ A.T, A @ S0 @ A.T
    raise CapabilityError(
        "analytic fields need jointly Gaussian endpoints "
        f"(coupling kind {cpl.kind!r} with {type(cpl.mu0).__name__} marginals)"
    )


@dataclass(frozen=True)
class MarginalMoments:
    mean: np.ndarray
    cov: np.ndarray
    degenerate: bool


def _coef_values(spec: ProcessSpec, t: float):
    """a, a', a'', b, b', b'', g, g', g'' at t."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError("t must lie in [0, 1]")
    return tuple(float(c) for c in coefficient_values(spec.coefficients, t))


def _moments(blocks, coefs) -> MarginalMoments:
    m0, m1, S00, S01, S11 = blocks
    a, _, _, b, _, _, g, _, _ = coefs
    mean = a * m0 + b * m1
    cov = a * a * S00 + a * b * (S01 + S01.T) + b * b * S11 + g * g * np.eye(m0.size)
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    tr = float(np.trace(cov))
    degenerate = bool(eigs.min() < _DEGENERACY_REL * max(tr, _DEGENERACY_REL))
    return MarginalMoments(mean, cov, degenerate)


def marginal_moments(spec: ProcessSpec, t: float) -> MarginalMoments:
    """Mean and covariance of X_t; flags numerically singular covariances."""
    return _moments(_endpoint_blocks(spec), _coef_values(spec, t))


@dataclass(frozen=True)
class _ConditionalModel:
    """Affine structure of the conditional fields at one t.  Calling it gives
    the velocity v(x) = Ev + Jv (x - mean); :func:`conditional_fields_batch`
    derives a, Pi and rho from the same terms, so the flow's many velocity
    builds do not pay for them."""

    coefs: tuple  # a, a', a'', b, b', b'', g, g', g'' at t
    mean: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray
    C_v: np.ndarray  # Cov(dX_t, X_t)
    Ev: np.ndarray  # E[dX_t]
    Jv: np.ndarray  # C_v S_t^-1 : spatial Jacobian of v

    def __call__(self, X: np.ndarray) -> np.ndarray:
        arr = np.asarray(X, dtype=float)
        single = arr.ndim == 1
        pts = np.atleast_2d(arr)
        V = self.Ev + (pts - self.mean) @ self.Jv.T
        return V[0] if single else V


def _cross(blocks, c1, c1p, c2, c2p, gg) -> np.ndarray:
    # Cov(c1' X0 + c2' X1 + gg1' Z, c1 X0 + c2 X1 + gg2 Z) building block
    _, _, S00, S01, S11 = blocks
    eye = np.eye(S00.shape[0])
    return c1p * c1 * S00 + c1p * c2 * S01 + c2p * c1 * S01.T + c2p * c2 * S11 + gg * eye


def _conditional_model(spec: ProcessSpec, blocks, t: float) -> _ConditionalModel:
    """The model at t over the endpoint ``blocks`` of ``spec``; raises
    DegenerateMarginalError where S_t is numerically singular."""
    coefs = _coef_values(spec, t)
    mom = _moments(blocks, coefs)
    if mom.degenerate:
        raise DegenerateMarginalError(
            f"marginal covariance at t={t} is numerically singular"
        )
    a, ad, _, b, bd, _, g, gd, _ = coefs
    # g g': where the latent bridge g = sqrt(t(1 - t)) is 0 (t = 0 or 1), g'
    # is infinite but g g' = (g^2)'/2 = 0.5 - t is not: the velocity field
    # there is its t -> 0 and t -> 1 limit
    C_v = _cross(blocks, a, ad, b, bd, gd * g if np.isfinite(gd) else 0.5 - t)
    cov_inv = np.linalg.inv(mom.cov)
    m0, m1 = blocks[:2]
    return _ConditionalModel(
        coefs, mom.mean, mom.cov, cov_inv, C_v, ad * m0 + bd * m1, C_v @ cov_inv
    )


def conditional_fields_batch(
    spec: ProcessSpec, t: float, X: np.ndarray, time_derivatives: bool = False
):
    """Vectorized oracle: X is (M, d); returns (rho, v, a, Sigma, Pi_const).

    With ``time_derivatives`` it also returns the exact (dt_rho, dt_rho_v,
    dt_v) at t, from the same model.  With q = x - m_t, P = S_t^-1,
    m' = E[dX_t], S' = C_v + C_v^T and Jv = C_v P:

        d_t log rho = -tr Jv + q^T P m' + q^T P C_v P q
        d_t v       = E[d2X_t] - Jv m' + ((C_a + Cov(dX_t)) P - Jv S' P) q
        d_t(rho v)  = rho (d_t log rho v + d_t v)
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    blocks = _endpoint_blocks(spec)
    model = _conditional_model(spec, blocks, t)
    a, ad, add, b, bd, bdd, g, gd, gdd = model.coefs
    # refused before any product: at an infinite g', g' g' I is inf * 0 = nan
    # off the diagonal, and numpy would warn of it on stderr
    if not np.all(np.isfinite(model.coefs)):
        raise InvalidArgumentError(
            f"Cov(dX_t) is infinite at t={t}, where a coefficient's derivative diverges"
        )
    m0, m1, S00, S01, S11 = blocks
    C_a = _cross(blocks, a, add, b, bdd, gdd * g)
    cov_v = ad * ad * S00 + ad * bd * (S01 + S01.T) + bd * bd * S11 + gd * gd * np.eye(spec.dim)
    Ja = C_a @ model.cov_inv
    Pi = cov_v - model.Jv @ model.C_v.T
    Pi = 0.5 * (Pi + Pi.T)
    # cancellation in cov_v - Jv C_v^T leaves O(1e-17) dust where Pi is
    # analytically zero (deterministic couplings); floor it so downstream
    # residuals see exact zeros
    pi_scale = max(float(np.trace(cov_v)), 0.0)
    Pi[np.abs(Pi) < 1e-14 * max(pi_scale, 1e-300)] = 0.0
    sign, logdet = np.linalg.slogdet(model.cov)
    if sign <= 0:
        raise DegenerateMarginalError("marginal covariance is not positive definite")
    log_norm = -0.5 * (spec.dim * np.log(2 * np.pi) + logdet)

    Q = X - model.mean
    V = model(X)
    Ea = add * m0 + bdd * m1
    A = Ea + Q @ Ja.T
    quad = np.einsum("mi,ij,mj->m", Q, model.cov_inv, Q)
    rho = np.exp(log_norm - 0.5 * quad)
    Sigma = Pi[None, :, :] + V[:, :, None] * V[:, None, :]
    if not time_derivatives:
        return rho, V, A, Sigma, Pi
    P, C_v, Jv, Ev = model.cov_inv, model.C_v, model.Jv, model.Ev
    dt_log_rho = (
        -np.trace(Jv) + Q @ (P @ Ev) + np.einsum("mi,ij,mj->m", Q, P @ C_v @ P, Q)
    )
    dt_J = (C_a + cov_v) @ P - Jv @ (C_v + C_v.T) @ P
    dt_v = Ea - Jv @ Ev + Q @ dt_J.T
    dt_rho_v = rho[:, None] * (dt_log_rho[:, None] * V + dt_v)
    return rho, V, A, Sigma, Pi, rho * dt_log_rho, dt_rho_v, dt_v


def velocity_at(spec: ProcessSpec, t: float, X: np.ndarray) -> np.ndarray:
    """Conditional velocity only; X may be (d,) or (M, d).  Cheap enough for
    ODE stepping."""
    return _conditional_model(spec, _endpoint_blocks(spec), t)(X)


def gaussian_ot_map(m0, S0, m1, S1) -> AffineMap:
    """Affine optimal-transport map between Gaussians (Bures metric form):
    A = S0^{-1/2} (S0^{1/2} S1 S0^{1/2})^{1/2} S0^{-1/2}, b = m1 - A m0."""
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    S0 = np.atleast_2d(np.asarray(S0, dtype=float))
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))

    sym = lambda S: 0.5 * (S + S.T)
    vals0 = np.linalg.eigvalsh(sym(S0))
    if vals0.min() <= _DEGENERACY_REL * max(float(vals0.max(initial=0.0)), _DEGENERACY_REL):
        raise InvalidArgumentError("source covariance must be nondegenerate")
    root0 = _psd_sqrt(sym(S0))
    inv_root0 = np.linalg.inv(root0)
    inner = _psd_sqrt(sym(root0 @ S1 @ root0))
    A = sym(inv_root0 @ inner @ inv_root0)
    push = A @ S0 @ A.T
    if np.abs(push - S1).max() > 1e-9 * max(np.abs(S1).max(), 1.0):
        raise InvalidArgumentError("transport map does not push S0 onto S1 (ill-conditioned input)")
    return AffineMap(A, m1 - A @ m0)


def oracle_box(spec: ProcessSpec, t: float):
    """Per-axis box mean +- 3 standard deviations at time t."""
    mom = marginal_moments(spec, t)
    sd = np.sqrt(np.clip(np.diag(mom.cov), 0.0, None))
    return [(float(m - 3.0 * s), float(m + 3.0 * s)) for m, s in zip(mom.mean, sd)]


def fields_on_grid(
    spec: ProcessSpec, t: float, grid: calculus.SpatialGrid,
    time_derivatives: bool = False,
) -> dict[str, np.ndarray]:
    """Tabulate rho, v, a, Sigma, Pi on a spatial grid at time t, as node
    arrays of shape ``grid.shape`` (scalars), ``grid.shape + (d,)``
    (vectors) and ``grid.shape + (d, d)`` (matrices); with
    ``time_derivatives`` also their exact time derivatives ``dt_rho``,
    ``dt_rho_v`` (of the momentum density rho v) and ``dt_v``."""
    pts = grid.points()
    values = conditional_fields_batch(spec, t, pts, time_derivatives)
    names = ("rho", "v", "a", "Sigma", "Pi", "dt_rho", "dt_rho_v", "dt_v")
    fields = dict(zip(names, values))
    fields["Pi"] = np.broadcast_to(fields["Pi"], (len(pts),) + fields["Pi"].shape)
    return {name: arr.reshape(grid.shape + arr.shape[1:]) for name, arr in fields.items()}
