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
from .core import AffineMap, Coefficient, Gaussian, ProcessSpec, bridge_gamma
from .errors import (
    CapabilityError,
    DegenerateMarginalError,
    InvalidArgumentError,
)

__all__ = [
    "GaussianProcessSpec",
    "MarginalMoments",
    "from_process_spec",
    "marginal_moments",
    "conditional_fields_batch",
    "velocity_at",
    "gaussian_ot_map",
    "oracle_box",
    "fields_on_grid",
]

_DEGENERACY_REL = 1e-12


@dataclass(frozen=True)
class GaussianProcessSpec:
    """Interpolant process whose endpoint pair is jointly Gaussian.

    The latent term, when present, has identity covariance and is independent
    of the endpoints.
    """

    mean0: np.ndarray
    mean1: np.ndarray
    S00: np.ndarray
    S01: np.ndarray
    S11: np.ndarray
    alpha: Coefficient
    beta: Coefficient
    gamma: Coefficient | None = None

    def __post_init__(self):
        d = np.atleast_1d(self.mean0).size
        arrays = {
            "mean0": np.atleast_1d(np.asarray(self.mean0, dtype=float)),
            "mean1": np.atleast_1d(np.asarray(self.mean1, dtype=float)),
            "S00": np.atleast_2d(np.asarray(self.S00, dtype=float)),
            "S01": np.atleast_2d(np.asarray(self.S01, dtype=float)),
            "S11": np.atleast_2d(np.asarray(self.S11, dtype=float)),
        }
        if arrays["mean1"].size != d:
            raise InvalidArgumentError("mean0 and mean1 must share a dimension")
        for name in ("S00", "S01", "S11"):
            if arrays[name].shape != (d, d):
                raise InvalidArgumentError(f"{name} must be {d}x{d}")
        block = np.block(
            [[arrays["S00"], arrays["S01"]], [arrays["S01"].T, arrays["S11"]]]
        )
        eigs = np.linalg.eigvalsh(0.5 * (block + block.T))
        if eigs.min() < -1e-10 * max(float(np.trace(block)), 1.0):
            raise InvalidArgumentError("endpoint block covariance is not PSD")
        for key, arr in arrays.items():
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @property
    def dim(self) -> int:
        return self.mean0.size


def from_process_spec(spec: ProcessSpec) -> GaussianProcessSpec:
    """Express a ProcessSpec analytically, or raise CapabilityError."""
    cpl = spec.coupling
    if cpl.kind == "gaussian_joint":
        d = cpl.dim
        mean, cov = cpl.joint_mean, cpl.joint_cov
        return GaussianProcessSpec(
            mean[:d], mean[d:], cov[:d, :d], cov[:d, d:], cov[d:, d:],
            spec.alpha, spec.beta, spec.gamma,
        )
    if isinstance(cpl.mu0, Gaussian) and isinstance(cpl.mu1, Gaussian):
        m0, S0 = cpl.mu0.moments()
        m1, S1 = cpl.mu1.moments()
        if cpl.kind == "independent":
            S01 = np.zeros((spec.dim, spec.dim))
            return GaussianProcessSpec(m0, m1, S0, S01, S1, spec.alpha, spec.beta, spec.gamma)
        if cpl.kind == "deterministic_map" and cpl.map is not None:
            A, b = cpl.map.A, cpl.map.b
            return GaussianProcessSpec(
                m0, A @ m0 + b, S0, S0 @ A.T, A @ S0 @ A.T, spec.alpha, spec.beta, spec.gamma
            )
    raise CapabilityError(
        "analytic fields need jointly Gaussian endpoints "
        f"(coupling kind {cpl.kind!r} with {type(cpl.mu0).__name__} marginals)"
    )


@dataclass(frozen=True)
class MarginalMoments:
    mean: np.ndarray
    cov: np.ndarray
    degenerate: bool


def _coef_values(spec: GaussianProcessSpec, t: float):
    """a, a', a'', b, b', b'', g, g', g'' at t."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError("t must lie in [0, 1]")
    a, ad, add = (float(fn(t)) for fn in (spec.alpha, spec.alpha.d1, spec.alpha.d2))
    b, bd, bdd = (float(fn(t)) for fn in (spec.beta, spec.beta.d1, spec.beta.d2))
    if spec.gamma is None:
        g = gd = gdd = 0.0
    else:
        g, gd, gdd = (float(fn(t)) for fn in (spec.gamma, spec.gamma.d1, spec.gamma.d2))
    return a, ad, add, b, bd, bdd, g, gd, gdd


def _moments(spec: GaussianProcessSpec, coefs) -> MarginalMoments:
    a, _, _, b, _, _, g, _, _ = coefs
    mean = a * spec.mean0 + b * spec.mean1
    cov = (
        a * a * spec.S00
        + a * b * (spec.S01 + spec.S01.T)
        + b * b * spec.S11
        + g * g * np.eye(spec.dim)
    )
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    tr = float(np.trace(cov))
    degenerate = bool(eigs.min() < _DEGENERACY_REL * max(tr, _DEGENERACY_REL))
    return MarginalMoments(mean, cov, degenerate)


def marginal_moments(spec: GaussianProcessSpec, t: float) -> MarginalMoments:
    """Mean and covariance of X_t; flags numerically singular covariances."""
    return _moments(spec, _coef_values(spec, t))


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


def _cross(spec: GaussianProcessSpec, c1, c1p, c2, c2p, gg) -> np.ndarray:
    # Cov(c1' X0 + c2' X1 + gg1' Z, c1 X0 + c2 X1 + gg2 Z) building block
    S00, S01, S11 = spec.S00, spec.S01, spec.S11
    eye = np.eye(spec.dim)
    return c1p * c1 * S00 + c1p * c2 * S01 + c2p * c1 * S01.T + c2p * c2 * S11 + gg * eye


def _latent_cross(spec: GaussianProcessSpec, t: float, g: float, gd: float) -> float:
    """g g' at t.  At the ends of [0, 1] the bridge g = sqrt(t(1 - t)) is 0
    and g' is infinite, but g g' = (g^2)'/2 = (1 - 2t)/2 stays finite: the
    velocity field there is its t -> 0 and t -> 1 limit."""
    if np.isfinite(gd):
        return gd * g
    if spec.gamma.name != bridge_gamma().name:
        raise CapabilityError(f"latent coefficient {spec.gamma.name} has no finite g g' at t={t}")
    return 0.5 - t


def _conditional_model(spec: GaussianProcessSpec, t: float) -> _ConditionalModel:
    """The model at t; raises DegenerateMarginalError where S_t is numerically
    singular."""
    coefs = _coef_values(spec, t)
    mom = _moments(spec, coefs)
    if mom.degenerate:
        raise DegenerateMarginalError(
            f"marginal covariance at t={t} is numerically singular"
        )
    a, ad, _, b, bd, _, g, gd, _ = coefs
    C_v = _cross(spec, a, ad, b, bd, _latent_cross(spec, t, g, gd))
    cov_inv = np.linalg.inv(mom.cov)
    return _ConditionalModel(
        coefs, mom.mean, mom.cov, cov_inv, C_v, ad * spec.mean0 + bd * spec.mean1, C_v @ cov_inv
    )


def conditional_fields_batch(
    spec: GaussianProcessSpec, t: float, X: np.ndarray, time_derivatives: bool = False
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
    model = _conditional_model(spec, t)
    a, ad, add, b, bd, bdd, g, gd, gdd = model.coefs
    S00, S01, S11 = spec.S00, spec.S01, spec.S11
    C_a = _cross(spec, a, add, b, bdd, gdd * g)
    cov_v = ad * ad * S00 + ad * bd * (S01 + S01.T) + bd * bd * S11 + gd * gd * np.eye(spec.dim)
    if not np.all(np.isfinite(cov_v)):
        raise InvalidArgumentError(
            f"Cov(dX_t) is infinite at t={t}, where a coefficient's derivative diverges"
        )
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
    Ea = add * spec.mean0 + bdd * spec.mean1
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


def velocity_at(spec: GaussianProcessSpec, t: float, X: np.ndarray) -> np.ndarray:
    """Conditional velocity only; X may be (d,) or (M, d).  Cheap enough for
    ODE stepping."""
    return _conditional_model(spec, t)(X)


def gaussian_ot_map(m0, S0, m1, S1) -> AffineMap:
    """Affine optimal-transport map between Gaussians (Bures metric form):
    A = S0^{-1/2} (S0^{1/2} S1 S0^{1/2})^{1/2} S0^{-1/2}, b = m1 - A m0."""
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    S0 = np.atleast_2d(np.asarray(S0, dtype=float))
    S1 = np.atleast_2d(np.asarray(S1, dtype=float))

    def sqrt_psd(S):
        vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
        floor = _DEGENERACY_REL * max(float(vals.max(initial=0.0)), 0.0)
        vals = np.where(vals < floor, 0.0, vals)
        return (vecs * np.sqrt(vals)) @ vecs.T, vals

    root0, vals0 = sqrt_psd(S0)
    if vals0.min() <= _DEGENERACY_REL * max(float(vals0.max(initial=0.0)), _DEGENERACY_REL):
        raise InvalidArgumentError("source covariance must be nondegenerate")
    inv_root0 = np.linalg.inv(root0)
    inner, _ = sqrt_psd(root0 @ S1 @ root0)
    A = inv_root0 @ inner @ inv_root0
    A = 0.5 * (A + A.T)
    push = A @ S0 @ A.T
    if np.abs(push - S1).max() > 1e-9 * max(np.abs(S1).max(), 1.0):
        raise InvalidArgumentError("transport map does not push S0 onto S1 (ill-conditioned input)")
    return AffineMap(A, m1 - A @ m0)


def oracle_box(spec: GaussianProcessSpec, t: float, n_sigma: float = 3.0):
    """Per-axis box mean +- n_sigma standard deviations at time t."""
    mom = marginal_moments(spec, t)
    sd = np.sqrt(np.clip(np.diag(mom.cov), 0.0, None))
    return [(float(m - n_sigma * s), float(m + n_sigma * s)) for m, s in zip(mom.mean, sd)]


def fields_on_grid(
    spec: GaussianProcessSpec, t: float, grid: calculus.SpatialGrid,
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
