"""Kernel estimation of density, conditional velocity/acceleration and the
velocity second-moment tensor from sampled slice arrays.

Everything uses an isotropic Gaussian product kernel.  The unnormalized
kernel weight of sample j at query x is ``exp(-|x - X_j|^2 / (2 h^2))``; the
sum of these weights is the "effective n" at x, and queries whose effective n
falls under ``density_floor`` are masked on grids (and refused by the flow's
kernel oracle).

Every estimate is a kernel-weighted sum, and :func:`nw_regress` is the one
engine that computes them, in every dimension.  A sample farther than eight
bandwidths from a query along any axis gets weight zero (each dropped weight
is below 1.3e-14), so each query meets only the samples in a box around it.
Samples are sorted on axis 0, and queries are walked in blocks bounded on
every axis.  In 1-D a block is a run of queries sorted on the axis and meets
the band of samples within eight bandwidths of it.  In d >= 2 a block is a
cell of queries a few bandwidths wide on every axis; it meets the samples of
its axis-0 band that also lie near it on every other axis, gathered once per
cell.  Squared distances are sums of direct coordinate differences, so
nothing cancels far from the origin.  :func:`fields_on_grid` is the grid view
over the engine.
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

# Kernel weights beyond this many bandwidths on any axis are below 1.3e-14 and
# dropped; immaterial next to estimator noise.
_WINDOW_BANDWIDTHS = 8.0
# In 1-D a query block spans at most this fraction of the window radius, so
# its sample band is at most 1/16 wider than one query's window.
_BLOCK_WIDTH = 1.0 / 8.0
# In d >= 2 queries are grouped in cells this fraction of the window radius
# wide on every axis; a cell meets the samples within the window radius of
# its extent on every axis.
_CELL_WIDTH = 0.5
# A cell with fewer queries than this skips the gather: gathering costs about
# as much per band sample as the kernel weights of a few queries, while each
# query saves only the weights of the samples the gather drops (a fifth to a
# half of the band at Silverman bandwidths).
_GATHER_QUERIES = 5
# Most query x sample pairs held at once (each temporary is 256 kB), unless
# one query's window alone holds more samples.
_BLOCK_PAIRS = 1 << 15


def _in_window(q_lo: np.ndarray, q_hi: np.ndarray, cols: np.ndarray, axes) -> np.ndarray:
    """(queries, columns) mask of the samples (d, columns) within the window
    on the given axes."""
    k, *rest = axes
    inside = cols[None, k] >= q_lo[:, k, None]
    inside &= cols[None, k] <= q_hi[:, k, None]
    for k in rest:
        inside &= cols[None, k] >= q_lo[:, k, None]
        inside &= cols[None, k] <= q_hi[:, k, None]
    return inside


def _weights(q: np.ndarray, cols: np.ndarray, h: float) -> np.ndarray:
    """Unnormalized Gaussian weights (queries, columns) of the samples
    (d, columns), distances summed from direct coordinate differences."""
    d2 = np.subtract(q[:, 0, None], cols[None, 0])
    np.square(d2, out=d2)
    for k in range(1, cols.shape[0]):
        diff = np.subtract(q[:, k, None], cols[None, k])
        d2 += np.square(diff, out=diff)
    np.multiply(d2, -1.0 / (2.0 * h * h), out=d2)
    return np.exp(d2, out=d2)


def _axis_blocks(S, Y, ps, radius, win):
    """1-D blocks: queries sorted on the axis, each block at most
    ``_BLOCK_WIDTH`` window radii wide and at most ``_BLOCK_PAIRS`` pairs,
    against the band of samples within the radius of it.  Yields (first
    query, end query, band samples (d, n), band targets, (columns, axes)
    pairs: columns that can fall outside a query's window on those axes)."""
    win_lo, win_hi = win
    block_end = np.searchsorted(ps[:, 0], ps[:, 0] + _BLOCK_WIDTH * radius, side="right")
    i = 0
    while i < ps.shape[0]:
        lo = win_lo[i]
        widest = max(win_hi[block_end[i] - 1] - lo, 1)
        j = i + max(1, min(block_end[i] - i, _BLOCK_PAIRS // widest))
        hi = win_hi[j - 1]
        if hi > lo:
            # every query of the block keeps the columns [win_lo[j-1], win_hi[i]);
            # only the columns on either side can fall outside a query's window
            left, right = win_lo[j - 1] - lo, win_hi[i] - lo
            edges = [(s, (0,)) for s in (slice(0, left), slice(right, hi - lo)) if s.start < s.stop]
            yield i, j, S[:, lo:hi], Y[lo:hi], edges
        i = j


def _cell_order(points, radius):
    """Permutation grouping the queries by cell (``_CELL_WIDTH`` window radii
    on every axis), and the start of each cell in that order.  Fewer queries
    than ``_GATHER_QUERIES`` stay in one group: no cell of theirs would
    gather."""
    m = points.shape[0]
    if m < _GATHER_QUERIES:
        return np.arange(m), np.array([0, m])
    cell = (points - points.min(axis=0)) // (_CELL_WIDTH * radius)
    order = np.lexsort(cell.T[::-1])
    cell = cell[order]
    first = np.ones(m, dtype=bool)
    first[1:] = np.any(cell[1:] != cell[:-1], axis=1)
    return order, np.append(np.flatnonzero(first), m)


def _cell_blocks(S, Y, q_lo, q_hi, win, starts):
    """d >= 2 blocks: each cell of queries meets the samples of its axis-0
    band that lie within the window radius of the cell's extent on every
    other axis, gathered with the samples inside every query's window first.
    A cell with fewer than ``_GATHER_QUERIES`` queries does not pay for the
    gather: each of its queries meets its own axis-0 window, masked on the
    other axes.  Yields blocks as ``_axis_blocks`` does."""
    win_lo, win_hi = win
    d = S.shape[0]
    for i, e in zip(starts[:-1], starts[1:]):
        if e - i < _GATHER_QUERIES:
            for j in range(i, e):
                lo, hi = win_lo[j], win_hi[j]
                yield j, j + 1, S[:, lo:hi], Y[lo:hi], ((slice(None), range(1, d)),)
            continue
        lo, hi = win_lo[i:e].min(), win_hi[i:e].max()
        band = S[:, lo:hi]
        cell_lo, cell_hi = q_lo[i:e].min(axis=0), q_hi[i:e].max(axis=0)
        # a sample inside [sure_lo, sure_hi] on every axis is in every query's window
        sure_lo, sure_hi = q_lo[i:e].max(axis=0), q_hi[i:e].min(axis=0)
        keep = np.ones(band.shape[1], dtype=bool)
        sure = (band[0] >= sure_lo[0]) & (band[0] <= sure_hi[0])
        for k in range(1, d):
            keep &= (band[k] >= cell_lo[k]) & (band[k] <= cell_hi[k])
            sure &= (band[k] >= sure_lo[k]) & (band[k] <= sure_hi[k])
        inner = np.flatnonzero(sure)
        cols = lo + np.concatenate([inner, np.flatnonzero(keep & ~sure)])
        if cols.size:
            edges = ((slice(inner.size, None), range(d)),)
            yield i, e, np.take(S, cols, axis=1), np.take(Y, cols, axis=0), edges


def nw_regress(X: np.ndarray, Y: np.ndarray, points: np.ndarray, h: float):
    """Nadaraya-Watson ratio of targets Y (N, p) at each query point (M, d).

    Returns (values (M, p), effective_n (M,)).  Samples farther than eight
    bandwidths from a query along any axis get weight zero.  No floor is
    applied here; callers decide whether to refuse or mask.  Samples already
    sorted on axis 0 are not sorted again, so a caller that queries one
    sample set many times can sort it once.
    """
    points = np.atleast_2d(points)
    radius = _WINDOW_BANDWIDTHS * h
    S = X.T
    if np.any(S[0, 1:] < S[0, :-1]):
        order = np.argsort(S[0], kind="stable")
        S, Y = S.take(order, axis=1), Y[order]
    S = np.ascontiguousarray(S)  # one contiguous row per axis
    if points.shape[1] == 1:
        order, starts = np.argsort(points[:, 0], kind="stable"), None
    else:
        order, starts = _cell_order(points, radius)
    ps = points[order]
    q_lo, q_hi = ps - radius, ps + radius
    # window of query i on axis 0: samples [win[0][i], win[1][i])
    win = (np.searchsorted(S[0], q_lo[:, 0], side="left"),
           np.searchsorted(S[0], q_hi[:, 0], side="right"))
    if starts is None:
        blocks = _axis_blocks(S, Y, ps, radius, win)
    else:
        blocks = _cell_blocks(S, Y, q_lo, q_hi, win, starts)

    sum_w = np.zeros(ps.shape[0])
    sum_wy = np.zeros((ps.shape[0], Y.shape[1]))
    for i, e, Sb, Yb, edges in blocks:
        step = max(1, _BLOCK_PAIRS // max(Sb.shape[1], 1))
        for j in range(i, e, step):
            rows = slice(j, min(j + step, e))
            w = _weights(ps[rows], Sb, h)
            for cols, axes in edges:
                w[:, cols] *= _in_window(q_lo[rows], q_hi[rows], Sb[:, cols], axes)
            sum_w[rows] = w.sum(axis=1)
            sum_wy[rows] = w @ Yb
        del Sb, Yb  # a cell's gathered samples go before the next cell's come

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
    pi = np.einsum("...ij,...j,...kj->...ik", vecs, vals, vecs)
    # the reconstruction multiplies the (i, k) and (k, i) entries in different
    # orders; the upper triangle is mirrored so that Pi is exactly symmetric
    i, k = np.triu_indices(pi.shape[-1], 1)
    pi[..., k, i] = pi[..., i, k]
    return pi


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
) -> dict[str, calculus.GridField]:
    """Estimate rho, v, a, Sigma, Pi on every grid node.

    Nodes whose effective n falls under the density floor, or is zero, get
    NaN values and are dropped from the mask (the compact-domain emulation),
    so every field's ``grid`` is the refined grid.  Pi is repaired by clipping
    negative eigenvalues so downstream stencils see a full PSD field.  The
    fields also carry ``effective_n``.
    """
    for name, arr in (("positions", X), ("velocities", V), ("accelerations", A)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{name} must be finite for grid estimation")
    n, d = X.shape
    h = resolve_bandwidth(cfg, X)
    pts = grid.points()
    # sorted here, so that nw_regress copies neither the samples nor the targets
    order = np.argsort(X[:, 0], kind="stable")
    outer = (V[:, :, None] * V[:, None, :]).reshape(n, d * d)
    targets = np.concatenate([V, A, outer], axis=1)[order]
    del outer  # not held through the kernel sums
    vals, eff = nw_regress(X[order], targets, pts, h)
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
    return {
        "rho": calculus.GridField(refined, "scalar", rho_arr.reshape(shape), t),
        "v": calculus.GridField(refined, "vector", v_arr.reshape(shape + (d,)), t),
        "a": calculus.GridField(refined, "vector", a_arr.reshape(shape + (d,)), t),
        "Sigma": calculus.GridField(refined, "matrix", sig_arr.reshape(shape + (d, d)), t),
        "Pi": calculus.GridField(refined, "matrix", pi_arr.reshape(shape + (d, d)), t),
        "effective_n": calculus.GridField(refined, "scalar", eff.reshape(shape), t),
    }
