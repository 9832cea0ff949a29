"""Kernel estimation of density, conditional velocity/acceleration and the
velocity second-moment tensor from sampled slice arrays.

Everything uses an isotropic Gaussian product kernel.  The unnormalized
kernel weight of sample j at query x is ``exp(-|x - X_j|^2 / (2 h^2))``; the
sum of these weights is the "effective n" at x, and queries whose effective n
falls under ``density_floor`` hold NaN on grids (and are refused by the flow's
kernel oracle).

Every estimate is a kernel-weighted sum, and :func:`nw_regress` is the one
engine that computes them, in every dimension.  It drops every pair whose
exponent -|x - X|^2 / (2 h^2) is below -32, i.e. every sample farther than
eight bandwidths from the query: one isotropic cut, the same in every
dimension (each dropped weight is below 1.3e-14, so at most 1.3e-14 N of
effective n).  The exponent sums squared direct coordinate differences, so
nothing cancels far from the origin.  Samples are sorted on axis 0 and
queries are walked in blocks that bound which samples can pass the cut.  In
1-D a block is a run of queries sorted on the axis, at most one bandwidth
wide, and meets the band of samples within eight bandwidths of it.  In d >= 2
a block is a cell of queries a few bandwidths wide on every axis; it meets
the samples of its axis-0 band that lie in a box around every query's disc,
gathered once per cell.

:func:`fields_on_grid` is the grid view over the engine.  Asked for time
derivatives, it also gives the exact rates of change of its kernel sums at a
fixed bandwidth as the samples move with their velocities: kernel means of
1 + d more per-sample targets, taken in the same pass as the fields (see
:func:`_kernel_means`).
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
        elif not 0 < self.bandwidth < np.inf:
            raise InvalidArgumentError("explicit bandwidth must be positive and finite")
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

# Pairs beyond this many bandwidths, whose kernel exponent -|x - X|^2 / (2 h^2)
# is below _CUT, are dropped: each dropped weight is below 1.3e-14, immaterial
# next to estimator noise.
_WINDOW_BANDWIDTHS = 8.0
_CUT = -(_WINDOW_BANDWIDTHS**2) / 2.0
# In 1-D a query block spans at most this fraction of the window radius, one
# bandwidth, so its sample band is at most 1/16 wider than one query's window.
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
# numpy's exp takes a slow path, 20-100 times slower, where its result is
# below the smallest normal double (exponents under -708.4).  A strip (see
# _cell_blocks) meets samples far off its query on the other axes, so it
# raises its exponents to this floor first; every floored pair is beyond the
# cut.  A gathered cell needs no floor below d = 10: its pairs lie within
# (1 + _CELL_WIDTH) window radii on every axis, so their exponents are at
# least (1 + _CELL_WIDTH)^2 d _CUT = -72 d.
_STRIP_FLOOR = _CUT - 1.0


def _weights(q: np.ndarray, cols: np.ndarray, h: float, cut, floor: bool):
    """Unnormalized Gaussian weights (queries, columns) of the samples
    (d, columns), distances summed from direct coordinate differences.  In
    the column slices ``cut`` a pair whose exponent is below _CUT weighs an
    exact 0; with ``floor``, exponents are raised to _STRIP_FLOOR before exp.
    Two pair temporaries at most."""
    d2 = np.subtract(q[:, 0, None], cols[None, 0])
    np.square(d2, out=d2)
    for k in range(1, cols.shape[0]):
        diff = np.subtract(q[:, k, None], cols[None, k])
        d2 += np.square(diff, out=diff)
    np.multiply(d2, -1.0 / (2.0 * h * h), out=d2)
    inside = [(c, d2[:, c] >= _CUT) for c in cut]
    if floor:
        np.maximum(d2, _STRIP_FLOOR, out=d2)
    w = np.exp(d2, out=d2)
    for c, mask in inside:
        w[:, c] *= mask
    return w


def _axis_blocks(S, Y, ps, h, win):
    """1-D blocks: queries sorted on the axis, each block at most
    ``_BLOCK_WIDTH`` window radii wide, against the band of samples within
    the radius of it.  Every query of a block keeps the interior columns
    [win_lo[j-1], win_hi[i]); only the edge columns on either side can be
    beyond a query's cut.  A block holds at most ``_BLOCK_PAIRS`` pairs.
    Yields (first query, end query, band samples (d, n), band targets, the
    column slices whose pairs can be beyond the cut, whether to floor the
    exponents)."""
    win_lo, win_hi = win
    x, radius = ps[:, 0], _WINDOW_BANDWIDTHS * h
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
            yield i, j, S[:, lo:hi], Y[lo:hi], edges, False
        i = j


def _product(w, T):
    """w @ T.  With one column of T, ``@`` is a BLAS dot or gemv whose
    reduction OpenBLAS splits across its threads, so its bits would follow
    the thread count; numpy's einsum calls no BLAS and sums in one order."""
    if T.shape[1] == 1:
        return np.einsum("qn,n->q", w, T[:, 0])[:, None]
    return w @ T


def _pair_sums(ps, i, e, Sb, Yb, h, cut, floor):
    """Kernel sums of the queries [i, e) over the samples Sb, every pair's
    weight taken directly, in runs of queries of at most ``_BLOCK_PAIRS``
    pairs.  Yields (rows, sum w, sum w Y)."""
    step = max(1, _BLOCK_PAIRS // max(Sb.shape[1], 1))
    for j in range(i, e, step):
        rows = slice(j, min(j + step, e))
        w = _weights(ps[rows], Sb, h, cut, floor)
        yield rows, w.sum(axis=1), _product(w, Yb)


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


def _take_rows(Y, rows):
    """The rows of Y, stored column by column (np.take returns C order)."""
    return np.take(Y.T, rows, axis=1).T


def _cell_blocks(S, Y, q_lo, q_hi, win, starts):
    """d >= 2 blocks: each cell of queries meets the samples of its axis-0
    band that lie within the window radius of the cell's extent on every
    other axis, a box around every query's disc, gathered once per cell.
    A cell with fewer than ``_GATHER_QUERIES`` queries does not pay for the
    gather: each of its queries meets its own axis-0 window (a strip), with
    floored exponents.  Any pair can be beyond the cut.  Yields blocks as
    ``_axis_blocks`` does."""
    win_lo, win_hi = win
    every_column = (slice(None),)
    for i, e in zip(starts[:-1], starts[1:]):
        if e - i < _GATHER_QUERIES:
            for j in range(i, e):
                lo, hi = win_lo[j], win_hi[j]
                yield j, j + 1, S[:, lo:hi], Y[lo:hi], every_column, True
            continue
        lo, hi = win_lo[i:e].min(), win_hi[i:e].max()
        band = S[:, lo:hi]
        cell_lo, cell_hi = q_lo[i:e].min(axis=0), q_hi[i:e].max(axis=0)
        keep = (band[1] >= cell_lo[1]) & (band[1] <= cell_hi[1])
        for k in range(2, S.shape[0]):
            keep &= (band[k] >= cell_lo[k]) & (band[k] <= cell_hi[k])
        cols = lo + np.flatnonzero(keep)
        if cols.size:
            yield i, e, np.take(S, cols, axis=1), _take_rows(Y, cols), every_column, False


def nw_regress(X: np.ndarray, Y: np.ndarray, points: np.ndarray, h: float):
    """Nadaraya-Watson ratio of targets Y (N, p) at each query point (M, d).

    Returns (values (M, p), effective_n (M,)).  A pair whose exponent
    -|x - X|^2 / (2 h^2) is below -32 (a sample farther than eight bandwidths
    from the query, in any direction) gets weight zero.  No floor is
    applied here; callers decide whether to refuse or mask.  Samples already
    sorted on axis 0 are not sorted again, so a caller that queries one
    sample set many times can sort it once.  A d >= 2 cell gathers its
    targets column by column, the layout ``fields_on_grid`` stores them in.
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
        blocks = _axis_blocks(S, Y, ps, h, win)
    else:
        blocks = _cell_blocks(S, Y, q_lo, q_hi, win, starts)

    sum_w = np.zeros(ps.shape[0])
    sum_wy = np.zeros((ps.shape[0], Y.shape[1]))
    for i, e, Sb, Yb, cut, floor in blocks:
        for rows, w, wy in _pair_sums(ps, i, e, Sb, Yb, h, cut, floor):
            sum_w[rows], sum_wy[rows] = w, wy
        del Sb, Yb  # a cell's gathered samples go before the next cell's come

    values = np.empty_like(sum_wy)
    with np.errstate(invalid="ignore", divide="ignore"):
        values[order] = sum_wy / sum_w[:, None]
    eff = np.empty_like(sum_w)
    eff[order] = sum_w
    return values, eff


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

def _kernel_means(X, V, A, points, h, time_derivatives):
    """Kernel means at the query points (M, d) of the targets [V, A, V (x) V]
    (V (x) V flattened row by row), the effective n, and with
    ``time_derivatives`` the means (M, 1 + d) of s and s V, s = (x - X).V per
    pair (otherwise None).  About the sample mean c, with p = (X - c).V,
        sum w s   = (x - c).sum w V - sum w p,
        sum w s V = sum_a (x - c)_a sum w V_a V - sum w p V,
    so those take the 1 + d more target columns p and p V.  The terms that
    cancel are as large as the samples' spread about c, wherever they lie.
    """
    n, d = X.shape
    # sorted here, so that nw_regress copies neither the samples nor the targets
    order = np.argsort(X[:, 0], kind="stable")
    Xs, Vs = X[order], V[order]
    # most of the engine's products are a few queries against thousands of
    # samples; OpenBLAS takes those faster with the targets stored column by
    # column
    k = d + A.shape[1]
    targets = np.empty((n, k + d * d + (1 + d) * time_derivatives), order="F")
    targets[:, :d], targets[:, d:k] = Vs, A[order]
    targets[:, k : k + d * d] = (Vs[:, :, None] * Vs[:, None, :]).reshape(n, d * d)
    if time_derivatives:
        c = X.mean(axis=0)
        targets[:, -1 - d] = ((Xs - c) * Vs).sum(axis=1)
        targets[:, -d:] = targets[:, -1 - d, None] * Vs
    del Vs  # not held through the kernel sums
    means, eff = nw_regress(Xs, targets, points, h)
    if not time_derivatives:
        return means, eff, None
    means, moved = means[:, : -1 - d], means[:, -1 - d :]
    x = points - c
    s = np.einsum("ma,ma->m", x, means[:, :d]) - moved[:, 0]
    sv = np.einsum("ma,mab->mb", x, means[:, -d * d :].reshape(-1, d, d)) - moved[:, 1:]
    return means, eff, np.column_stack([s, sv])


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

    Nodes whose effective n falls under the density floor, or is zero, are
    refused (the compact-domain emulation): every field but ``effective_n``,
    which the fields also carry, holds NaN there.  Pi is repaired by clipping
    negative eigenvalues so downstream stencils see a full PSD field.

    With ``time_derivatives`` they also carry the exact time derivatives of
    the estimate at its bandwidth, held fixed, as the samples move with V:
    ``dt_rho``, ``dt_rho_v`` (of the momentum density rho v) and ``dt_v``.
    """
    for name, arr in (("positions", X), ("velocities", V), ("accelerations", A)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteDataError(f"{name} must be finite for grid estimation")
    n, d = X.shape
    h = resolve_bandwidth(cfg, X)
    vals, eff, rates = _kernel_means(X, V, A, grid.points(), h, time_derivatives)
    rho = eff / (n * (2 * np.pi * h * h) ** (d / 2))

    ok = (eff >= cfg.density_floor) & (eff > 0)
    vals[~ok] = np.nan
    rho_arr = np.where(ok, rho, np.nan)

    v_arr = vals[:, :d]
    a_arr = vals[:, d : 2 * d]
    sig_arr = vals[:, 2 * d :].reshape(-1, d, d)
    sig_arr = 0.5 * (sig_arr + np.swapaxes(sig_arr, -1, -2))
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
