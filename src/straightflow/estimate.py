"""Kernel estimation of density, conditional velocity/acceleration and the
velocity second-moment tensor from sampled slice arrays.

Everything uses an isotropic Gaussian product kernel.  The unnormalized
kernel weight of sample j at query x is ``exp(-|x - X_j|^2 / (2 h^2))``; the
sum of these weights is the "effective n" at x, and queries whose effective n
falls under ``density_floor`` are masked on grids (and refused by the flow's
kernel oracle).

Every estimate is a kernel-weighted sum, and :func:`nw_regress` is the one
engine that computes them, in every dimension.  Samples and queries are
sorted on axis 0 and the queries are walked in blocks; each block meets only
the band of samples within eight bandwidths of it on axis 0, and a sample
farther than that from a query on axis 0 gets weight zero (each dropped
weight is below 1.3e-14).  Squared distances are sums of direct coordinate
differences, so nothing cancels far from the origin.  :func:`fields_on_grid`
is the grid view over the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .errors import (
    DegenerateDataError,
    InconsistentMomentsError,
    InvalidArgumentError,
    NonFiniteDataError,
)

__all__ = [
    "KernelConfig",
    "silverman_bandwidth_from",
    "reynolds_tensor",
    "nw_regress",
    "fields_on_grid",
]


@dataclass(frozen=True)
class KernelConfig:
    """Kernel estimation knobs.

    ``bandwidth`` is either an explicit length or the rule tag "silverman".
    ``density_floor`` is the minimum effective sample weight below which
    estimates are refused.
    """

    bandwidth: float | str = "silverman"
    density_floor: float = 25.0

    def __post_init__(self):
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "silverman":
                raise InvalidArgumentError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            raise InvalidArgumentError("explicit bandwidth must be positive")
        if self.density_floor < 0:
            raise InvalidArgumentError("density_floor must be nonnegative")


def silverman_bandwidth_from(X: np.ndarray) -> float:
    """Silverman rule h = sigma_hat (4 / ((d+2) N))^(1/(d+4)) on sample
    positions (N, d)."""
    n, d = X.shape
    if n < 2:
        raise InvalidArgumentError("silverman bandwidth needs at least two samples")
    sigma = float(np.mean(np.std(X, axis=0, ddof=1)))
    if sigma <= 0:
        raise DegenerateDataError("zero-variance slice; bandwidth undefined")
    return sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))


def resolve_bandwidth(cfg: KernelConfig, X: np.ndarray) -> float:
    if isinstance(cfg.bandwidth, str):
        return silverman_bandwidth_from(X)
    return float(cfg.bandwidth)


# ---------------------------------------------------------------------------
# the kernel-moment engine
# ---------------------------------------------------------------------------

# Kernel weights beyond this many bandwidths on axis 0 are below 1.3e-14 and
# dropped; immaterial next to estimator noise.
_WINDOW_BANDWIDTHS = 8.0
# A query block spans at most this fraction of the window radius on axis 0,
# so its sample band is at most 1/16 wider than one query's window.
_BLOCK_WIDTH = 1.0 / 8.0
# Most query x sample pairs held at once (each temporary is 256 kB), unless
# one query's window alone holds more samples.
_BLOCK_PAIRS = 1 << 15


def nw_regress(X: np.ndarray, Y: np.ndarray, points: np.ndarray, h: float):
    """Nadaraya-Watson ratio of targets Y (N, p) at each query point (M, d).

    Returns (values (M, p), effective_n (M,)).  Samples farther than eight
    bandwidths from a query on axis 0 get weight zero.  No floor is applied
    here; callers decide whether to refuse or mask.  Samples already sorted
    on axis 0 are not sorted again, so a caller that queries one sample set
    many times can sort it once.
    """
    points = np.atleast_2d(points)
    radius = _WINDOW_BANDWIDTHS * h
    if np.any(X[1:, 0] < X[:-1, 0]):
        order = np.argsort(X[:, 0], kind="stable")
        X, Y = X[order], Y[order]
    order = np.argsort(points[:, 0], kind="stable")
    ps = points[order]
    lo_edge = ps[:, 0] - radius
    hi_edge = ps[:, 0] + radius
    # window of query i on axis 0: samples [win_lo[i], win_hi[i])
    win_lo = np.searchsorted(X[:, 0], lo_edge, side="left")
    win_hi = np.searchsorted(X[:, 0], hi_edge, side="right")
    block_end = np.searchsorted(ps[:, 0], ps[:, 0] + _BLOCK_WIDTH * radius, side="right")

    sum_w = np.zeros(ps.shape[0])
    sum_wy = np.zeros((ps.shape[0], Y.shape[1]))
    i = 0
    while i < ps.shape[0]:
        lo = win_lo[i]
        widest = max(win_hi[block_end[i] - 1] - lo, 1)
        j = i + max(1, min(block_end[i] - i, _BLOCK_PAIRS // widest))
        hi = win_hi[j - 1]
        if hi > lo:
            band, q = X[lo:hi], ps[i:j]
            d2 = np.subtract(q[:, 0, None], band[None, :, 0])
            np.square(d2, out=d2)
            for k in range(1, band.shape[1]):
                diff = np.subtract(q[:, k, None], band[None, :, k])
                d2 += np.square(diff, out=diff)
            # every query of the block keeps the columns [win_lo[j-1], win_hi[i]);
            # only the columns on either side can fall outside a query's window
            left, right = win_lo[j - 1] - lo, win_hi[i] - lo
            np.copyto(d2[:, :left], np.inf, where=band[None, :left, 0] < lo_edge[i:j, None])
            np.copyto(d2[:, right:], np.inf, where=band[None, right:, 0] > hi_edge[i:j, None])
            np.multiply(d2, -1.0 / (2.0 * h * h), out=d2)
            w = np.exp(d2, out=d2)
            sum_w[i:j] = w.sum(axis=1)
            sum_wy[i:j] = w @ Y[lo:hi]
        i = j

    vals = np.empty_like(sum_wy)
    eff = np.empty_like(sum_w)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals[order] = sum_wy / sum_w[:, None]
    eff[order] = sum_w
    return vals, eff


def reynolds_tensor(Sigma_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Pi = Sigma - v (x) v over a batch (..., d, d) of second moments and
    (..., d) of means, symmetrized, with small negative eigenvalues clipped
    to zero.  An eigenvalue below -1e-8 trace(Sigma) means that pair is not
    a consistent (second moment, mean) pair."""
    Sigma_hat = np.asarray(Sigma_hat, dtype=float)
    v_hat = np.asarray(v_hat, dtype=float)
    if v_hat.ndim == 0 or Sigma_hat.shape != v_hat.shape + v_hat.shape[-1:]:
        raise InvalidArgumentError("Sigma_hat and v_hat shapes disagree")
    pi = Sigma_hat - v_hat[..., :, None] * v_hat[..., None, :]
    pi = 0.5 * (pi + np.swapaxes(pi, -1, -2))
    vals, vecs = np.linalg.eigh(pi)
    tol = 1e-8 * np.maximum(np.trace(Sigma_hat, axis1=-2, axis2=-1), 0.0)
    lowest = vals[..., 0]
    if np.any(lowest < -tol):
        worst = np.unravel_index(np.argmin(lowest + tol), lowest.shape)
        raise InconsistentMomentsError(
            f"Pi eigenvalue {lowest[worst]:.3g} below -1e-8 trace(Sigma) = {-tol[worst]:.3g}"
        )
    vals = np.clip(vals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals, vecs)


# ---------------------------------------------------------------------------
# grid tabulation
# ---------------------------------------------------------------------------

def fields_on_grid(
    X: np.ndarray,
    V: np.ndarray,
    A: np.ndarray,
    grid: calculus.SpatialGrid,
    cfg: KernelConfig,
    t: float = 0.0,
):
    """Estimate rho, v, a, Sigma, Pi on every grid node.

    Nodes whose effective n falls under the density floor, or is zero, get
    NaN values and are dropped from the mask (the compact-domain emulation).  Pi is repaired
    by clipping negative eigenvalues so downstream stencils see a full PSD
    field.  Returns (fields dict, refined grid, bandwidth).
    """
    for name, arr in (("positions", X), ("velocities", V), ("accelerations", A)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{name} must be finite for grid estimation")
    n, d = X.shape
    h = resolve_bandwidth(cfg, X)
    pts = grid.points()
    outer = (V[:, :, None] * V[:, None, :]).reshape(n, d * d)
    targets = np.concatenate([V, A, outer], axis=1)
    vals, eff = nw_regress(X, targets, pts, h)
    rho = eff / (n * (2 * np.pi * h * h) ** (d / 2))

    ok = (eff >= cfg.density_floor) & (eff > 0)
    vals[~ok] = np.nan
    rho_arr = np.where(ok, rho, np.nan)

    shape = grid.shape
    v_arr = vals[:, :d]
    a_arr = vals[:, d : 2 * d]
    sig_arr = vals[:, 2 * d :].reshape(-1, d, d)
    sig_arr = 0.5 * (sig_arr + np.swapaxes(sig_arr, -1, -2))
    pi_arr = np.full_like(sig_arr, np.nan)
    pi_arr[ok] = reynolds_tensor(sig_arr[ok], v_arr[ok])

    refined = grid.with_mask(grid.mask & ok.reshape(shape))
    fields = {
        "rho": calculus.GridField(refined, "scalar", rho_arr.reshape(shape), t),
        "v": calculus.GridField(refined, "vector", v_arr.reshape(shape + (d,)), t),
        "a": calculus.GridField(refined, "vector", a_arr.reshape(shape + (d,)), t),
        "Sigma": calculus.GridField(refined, "matrix", sig_arr.reshape(shape + (d, d)), t),
        "Pi": calculus.GridField(refined, "matrix", pi_arr.reshape(shape + (d, d)), t),
        "effective_n": calculus.GridField(refined, "scalar", eff.reshape(shape), t),
    }
    return fields, refined, h
