"""Kernel estimation of density, conditional velocity/acceleration and the
velocity second-moment tensor from sampled slice arrays.

Everything uses a Gaussian product kernel cut per axis.  The unnormalized
kernel weight of sample j at query x is ``prod_k exp(-(x_k - X_jk)^2 / (2
h^2))``; the sum of these weights is the "effective n" at x.  One gate,
:meth:`KernelConfig.admits`, refuses a query whose effective n falls under
``density_floor`` or is zero: such a grid node holds NaN, and the flow's
kernel oracle refuses such a query point.  A pair is dropped when its
exponent on some axis is below -32, i.e. when the sample is more than eight
bandwidths from the query on that axis: each dropped weight is below
1.3e-14, so at most 1.3e-14 N of effective n, and so is each kept weight of
a sample more than eight bandwidths away in distance.  Exponents take direct coordinate
differences, so nothing cancels far from the origin.

Both paths of the engine sum a target block, stored column by column, whose
first column is ones: its first sum is the effective n, and :func:`_ratio`
divides the other sums by it.

:func:`nw_regress` sums the weights pair by pair at any query points (see
:func:`_pair_sums`).  Samples are sorted on axis 0 and queries are walked in
runs sorted on that axis, at most one bandwidth wide, each against the band
of samples within eight bandwidths of it on axis 0.

:func:`fields_on_grid` tabulates the estimates on a grid.  In d >= 2 the
kernel factors over the grid's axes, so it takes no pairwise sums: for each
axis-0 node the axis-0 factors of its band scale the targets, and one matrix
product with the table of the other axes' factors sums them at every node
of that axis-0 slice (see :func:`_grid_sums`); a 1-D grid takes the pair
sums at its nodes.  Asked for time derivatives, it also gives the exact
rates of change of its kernel sums at a fixed bandwidth as the samples move
with their velocities: kernel means of 1 + d more per-sample targets, taken
in the same pass as the fields (see :func:`_kernel_means`).
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
    estimates are refused (see :meth:`admits`).
    """

    bandwidth: float | str = "silverman"
    density_floor: float = 25.0

    def __post_init__(self):
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "silverman":
                raise InvalidArgumentError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not 0 < self.bandwidth < np.inf:
            raise InvalidArgumentError("explicit bandwidth must be positive and finite")
        if self.density_floor < 0:
            raise InvalidArgumentError("density_floor must be nonnegative")

    def admits(self, eff: np.ndarray) -> np.ndarray:
        """Where an effective n ``eff`` admits an estimate: at least the floor and
        above zero, whatever the floor (at 0 no sample weighs it; its means are NaN)."""
        return (eff >= self.density_floor) & (eff > 0)


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


def stable_argsort(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")`` of a 1-D array, from numpy's faster
    default sort with each run of equal keys (NaNs alike) put in row order."""
    order = np.argsort(x)
    s = x[order]
    tie = s[1:] == s[:-1]
    tie |= np.isnan(s[1:]) & np.isnan(s[:-1])
    if tie.any():
        run = np.cumsum(np.r_[False, ~tie])
        order = np.sort(run * x.size + order) % x.size
    return order


# ---------------------------------------------------------------------------
# the kernel-moment engine
# ---------------------------------------------------------------------------

# Pairs beyond this many bandwidths on some axis, whose kernel exponent
# -(x_k - X_k)^2 / (2 h^2) on that axis is below _CUT, are dropped: each
# dropped weight is below 1.3e-14, immaterial next to estimator noise.
_WINDOW_BANDWIDTHS = 8.0
_CUT = -(_WINDOW_BANDWIDTHS**2) / 2.0
# A query block spans at most this fraction of the window radius on axis 0,
# one bandwidth, so its sample band is at most 1/16 wider than one query's.
_BLOCK_WIDTH = 1.0 / 8.0
# Most query x sample pairs held at once (each temporary is 256 kB), unless
# one query's window alone holds more samples.
_BLOCK_PAIRS = 1 << 15
# Most multiply-adds of one product of weights and targets, in a run of the
# pair sums or for one axis-0 node in a chunk of a d >= 2 grid sum (see
# _grid_sums), and most doubles (2 MB) of a grid chunk's operands, unless one
# query or sample alone needs more.  OpenBLAS takes a product this small on
# one thread, so its bits do not follow the thread count.
_CHUNK_DOUBLES = 1 << 18
# numpy's exp takes a slow path, 20-100 times slower, where its result is
# below the smallest normal double (exponents under -708.4).  In d >= 2 a
# query meets samples far off it on the axes after the first, so their
# exponents are raised to this floor first, axis by axis; every floored pair
# is beyond the cut, and a pair's exponents then sum to more than -41 d.
_STRIP_FLOOR = _CUT - 1.0


def _exponents(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Kernel exponents -(a_i - b_j)^2 / (2 h^2) (a.size, b.size) on one axis."""
    e = np.subtract(a[:, None], b[None, :])
    return np.multiply(np.square(e, out=e), -1.0 / (2.0 * h * h), out=e)


def _weights(q: np.ndarray, cols: np.ndarray, h: float, cut):
    """Unnormalized Gaussian weights (queries, columns) of the samples
    (d, columns), the exponents summed in axis order.  A pair whose exponent
    on some axis is below _CUT weighs an exact 0: on axis 0 only the column
    slices ``cut`` can be, on the other axes (floored at _STRIP_FLOOR) any
    column.  Two pair temporaries at most, plus their masks."""
    e = _exponents(q[:, 0], cols[0], h)
    inside = [(c, e[:, c] >= _CUT) for c in cut]
    for k in range(1, cols.shape[0]):
        ek = _exponents(q[:, k], cols[k], h)
        inside.append((slice(None), ek >= _CUT))
        e += np.maximum(ek, _STRIP_FLOOR, out=ek)
    w = np.exp(e, out=e)
    for c, mask in inside:
        w[:, c] *= mask
    return w


def _axis_blocks(S, T, ps, h):
    """Queries sorted on axis 0, each block at most ``_BLOCK_WIDTH`` window
    radii wide on it, against the band of samples within the radius of it.
    Every query of a block keeps the interior columns [win_lo[j-1],
    win_hi[i]) on axis 0; only the edge columns on either side can be beyond
    a query's cut there.  A block holds at most ``_BLOCK_PAIRS`` pairs.
    Yields (first query, end query, band samples (d, n), band targets, the
    column slices whose pairs can be beyond the cut on axis 0)."""
    x, radius = ps[:, 0], _WINDOW_BANDWIDTHS * h
    # window of query i on axis 0: samples [win_lo[i], win_hi[i])
    win_lo = np.searchsorted(S[0], x - radius, side="left")
    win_hi = np.searchsorted(S[0], x + radius, side="right")
    block_end = np.searchsorted(x, x + _BLOCK_WIDTH * radius, side="right")
    i = 0
    while i < x.size:
        lo, j = win_lo[i], block_end[i]
        widest = max(win_hi[j - 1] - lo, 1)
        j = i + max(1, min(j - i, _BLOCK_PAIRS // widest))
        hi = win_hi[j - 1]
        if hi > lo:
            left, right = win_lo[j - 1] - lo, win_hi[i] - lo
            edges = [s for s in (slice(0, left), slice(right, hi - lo)) if s.start < s.stop]
            yield i, j, S[:, lo:hi], T[lo:hi], edges
        i = j


def _pair_sums(X, T, points, h):
    """Kernel sums (M, p) at the query points (M, d) of the targets T (N, p),
    whose first column is ones, over the samples X (N, d), sorted on axis 0,
    every pair's weight taken directly.  The queries are walked in runs of
    at most ``_BLOCK_PAIRS`` pairs and ``_CHUNK_DOUBLES`` multiply-adds."""
    S = np.ascontiguousarray(X.T)  # one contiguous row per axis
    order = stable_argsort(points[:, 0])
    ps = points[order]
    sums = np.zeros((ps.shape[0], T.shape[1]))
    bound = min(_BLOCK_PAIRS, _CHUNK_DOUBLES // T.shape[1])
    for i, e, Sb, Tb, cut in _axis_blocks(S, T, ps, h):
        step = max(1, bound // Sb.shape[1])
        for j in range(i, e, step):
            rows = slice(j, min(j + step, e))
            sums[order[rows]] = _weights(ps[rows], Sb, h, cut) @ Tb
    return sums


def _ratio(sums):
    """Nadaraya-Watson means (M, p - 1) and effective n (M,) from kernel
    sums (M, p) whose first column is the sum of the weights."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return sums[:, 1:] / sums[:, :1], sums[:, 0]


def nw_regress(X: np.ndarray, Y: np.ndarray, points: np.ndarray, h: float):
    """Nadaraya-Watson ratio of targets Y (N, p) at each query point (M, d).

    Returns (values (M, p), effective_n (M,)).  A pair whose exponent
    -(x_k - X_k)^2 / (2 h^2) on some axis k is below -32 (a sample more than
    eight bandwidths from the query on that axis) gets weight zero.  No
    floor is applied here; callers decide whether to refuse or mask.
    Samples already sorted on axis 0 are not sorted again, so a caller that
    queries one sample set many times can sort it once.
    """
    if np.any(X[1:, 0] < X[:-1, 0]):
        order = stable_argsort(X[:, 0])
        X, Y = X[order], Y[order]
    # built after the sort, so sorted and unsorted samples sum the same block
    T = np.empty((Y.shape[0], 1 + Y.shape[1]), order="F")
    T[:, 0], T[:, 1:] = 1.0, Y
    return _ratio(_pair_sums(X, T, np.atleast_2d(points), h))


def _factors(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Kernel factors (a.size, b.size) on one axis: exp of the exponents,
    floored at _STRIP_FLOOR, and an exact 0 where they are below _CUT."""
    e = _exponents(a, b, h)
    inside = e >= _CUT
    return np.multiply(np.exp(np.maximum(e, _STRIP_FLOOR, out=e), out=e), inside, out=e)


def _grid_sums(X, T, axes, h):
    """Kernel sums of the targets T (N, p), whose first column is ones, on
    the tensor grid ``axes`` (d >= 2) over the samples X (N, d), sorted on
    axis 0.  The weight of sample j at node (i, r) is f0(i, j) F(r, j), F
    the product of the factors of the axes after the first, so the sums at
    the nodes of axis-0 node i are the product (T.T * f0(i)) @ F.T over the
    samples of its band (those within the window radius on axis 0).  The
    samples are walked in chunks, each product of a chunk taken once per
    axis-0 node whose band meets it.  Returns the sums (M, p) in the grid's
    C order."""
    g0, rest = axes[0], axes[1:]
    x0 = np.ascontiguousarray(X[:, 0])
    radius = _WINDOW_BANDWIDTHS * h
    lo = np.searchsorted(x0, g0 - radius, side="left")
    hi = np.searchsorted(x0, g0 + radius, side="right")
    nodes, p = int(np.prod([ax.size for ax in rest])), T.shape[1]
    sums = np.zeros((g0.size, p, nodes))
    step = max(1, _CHUNK_DOUBLES // (p * max(nodes, g0.size)))
    for c in range(lo[0], hi[-1], step):
        e = min(c + step, hi[-1])
        F = _factors(rest[0], X[c:e, 1], h)
        for k, ax in enumerate(rest[1:], 2):
            F = (F[:, None, :] * _factors(ax, X[c:e, k], h)[None, :, :]).reshape(-1, e - c)
        i, j = np.searchsorted(hi, c, side="right"), np.searchsorted(lo, e)
        # beyond node i's band its factors f0(i) are 0: its samples are cut
        sums[i:j] += (T.T[None, :, c:e] * _factors(g0[i:j], x0[c:e], h)[:, None, :]) @ F.T
    return sums.transpose(0, 2, 1).reshape(-1, p)


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

def _kernel_means(X, V, A, queries, h, time_derivatives):
    """Kernel means at the queries of the targets [V, A], and of the upper
    triangle of V (x) V, returned as Sigma (M, d, d); the effective n; and
    with ``time_derivatives`` the means (M, 1 + d) of s and s V, s = (x -
    X).V per pair (otherwise None).  ``queries`` is an (M, d) array of
    points, or a grid, whose sums in d >= 2 take :func:`_grid_sums` and
    otherwise :func:`_pair_sums`.  With p = (X - c).V, c the sample mean,
        sum w s   = (x - c).sum w V - sum w p,
        sum w s V = sum_a (x - c)_a sum w V_a V - sum w p V,
    so those take the 1 + d more target columns p and p V.  The terms that
    cancel are as large as the samples' spread about c, wherever they lie.
    """
    n, d = X.shape
    grid = isinstance(queries, calculus.SpatialGrid)
    points = queries.points() if grid else queries
    # sorted here, so that the pair sums copy neither the samples nor the targets
    order = stable_argsort(X[:, 0])
    Xs, Vs = X[order], V[order]
    iu = np.triu_indices(d)
    k = d + A.shape[1]
    m = k + iu[0].size
    # the targets behind a ones column, whose sum is the effective n; most of
    # the pairwise products are a few queries against thousands of samples,
    # which OpenBLAS takes faster with the block stored column by column
    block = np.empty((n, 1 + m + (1 + d) * time_derivatives), order="F")
    block[:, 0], block[:, 1 : 1 + d], block[:, 1 + d : 1 + k] = 1.0, Vs, A[order]
    block[:, 1 + k : 1 + m] = Vs[:, iu[0]] * Vs[:, iu[1]]
    if time_derivatives:
        c = X.mean(axis=0)
        block[:, 1 + m] = ((Xs - c) * Vs).sum(axis=1)
        block[:, 2 + m :] = block[:, 1 + m, None] * Vs
    del Vs  # not held through the kernel sums
    if grid and d > 1:
        means, eff = _ratio(_grid_sums(Xs, block, queries.axes, h))
    else:
        means, eff = _ratio(_pair_sums(Xs, block, points, h))
    sigma = np.empty((means.shape[0], d, d))
    sigma[:, iu[0], iu[1]] = sigma[:, iu[1], iu[0]] = means[:, k:m]
    if not time_derivatives:
        return means[:, :k], sigma, eff, None
    moved = means[:, m:]
    x = points - c
    s = np.einsum("ma,ma->m", x, means[:, :d]) - moved[:, 0]
    sv = np.einsum("ma,mab->mb", x, sigma) - moved[:, 1:]
    return means[:, :k], sigma, eff, np.column_stack([s, sv])


def fields_on_grid(
    X: np.ndarray,
    V: np.ndarray,
    A: np.ndarray,
    grid: calculus.SpatialGrid,
    cfg: KernelConfig,
    time_derivatives: bool = False,
) -> dict[str, np.ndarray]:
    """Estimate rho, v, a, Sigma, Pi on every grid node, as node arrays of
    shape ``grid.shape`` (scalars), ``grid.shape + (d,)`` (vectors) and
    ``grid.shape + (d, d)`` (matrices).

    Nodes that ``cfg.admits`` refuses (effective n under the floor, or 0)
    hold NaN in every field but ``effective_n``, which the fields also carry
    (the compact-domain emulation).  Pi is repaired by clipping negative
    eigenvalues so downstream stencils see a full PSD field.

    With ``time_derivatives`` they also carry the exact time derivatives of
    the estimate at its bandwidth, held fixed, as the samples move with V:
    ``dt_rho``, ``dt_rho_v`` (of the momentum density rho v) and ``dt_v``.
    """
    for name, arr in (("positions", X), ("velocities", V), ("accelerations", A)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{name} must be finite for grid estimation")
    n, d = X.shape
    h = resolve_bandwidth(cfg, X)
    vals, sig_arr, eff, rates = _kernel_means(X, V, A, grid, h, time_derivatives)
    rho = eff / (n * (2 * np.pi * h * h) ** (d / 2))

    ok = cfg.admits(eff)
    vals[~ok] = sig_arr[~ok] = np.nan
    rho_arr = np.where(ok, rho, np.nan)

    v_arr = vals[:, :d]
    a_arr = vals[:, d : 2 * d]
    pi_arr = np.full_like(sig_arr, np.nan)
    pi_arr[ok] = reynolds_tensor(sig_arr[ok], v_arr[ok])

    fields = {"rho": rho_arr, "v": v_arr, "a": a_arr, "Sigma": sig_arr, "Pi": pi_arr,
              "effective_n": eff}
    if time_derivatives:
        # d_t sum_i w_i = sum_i w_i s_i / h^2 and d_t sum_i w_i V_i = sum_i w_i
        # s_i V_i / h^2 + sum_i w_i A_i; both over sum_i w_i here, so refused
        # nodes stay NaN through rho and a
        rates = rates / (h * h)
        dt_log_rho, dt_mom = rates[:, 0], rates[:, 1:] + a_arr
        fields["dt_rho"], fields["dt_rho_v"] = rho_arr * dt_log_rho, rho_arr[:, None] * dt_mom
        fields["dt_v"] = dt_mom - v_arr * dt_log_rho[:, None]
    return {name: arr.reshape(grid.shape + arr.shape[1:]) for name, arr in fields.items()}
