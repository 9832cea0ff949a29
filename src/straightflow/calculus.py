"""Finite-difference calculus on tensor-product grids and PDE residuals.

A field is a plain array of node values on a :class:`SpatialGrid`: a scalar
field has shape ``grid.shape``, a vector field ``grid.shape + (d,)`` and a
matrix field ``grid.shape + (d, d)``.  A node is admissible exactly where its
values are finite: refused nodes hold ``nan``, and every stencil gives
``nan`` on the outermost node layer and wherever it meets a ``nan``.

First derivatives use central differences.  With ``order=4`` (the default,
appropriate for smooth analytic fields) a five-point stencil is used at every
interior node, switching to the offset five-point stencil one node in from
each boundary.  ``order=2`` (three-point central) is preferred for noisy
estimated fields, where higher-order stencils amplify sampling noise.  Both
are exact on quadratics.

The divergence contracts a field's FIRST component index:
``div F = sum_i d_i F_i`` and ``(div T)_j = sum_i d_i T_ij``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidGridError, NoAdmissibleNodesError

__all__ = [
    "SpatialGrid",
    "ResidualReport",
    "make_spatial_grid",
    "quantile_box",
    "divergence",
    "material_derivative",
    "momentum_residual",
    "balance_residual",
    "continuity_residual",
    "material_residual",
    "csv_table",
    "grid_field_to_csv",
]

_REL_FLOOR = 1e-30
_BALANCE_TOLERANCE = 1e-3  # the relative rms within which the balance law holds
_CSV_BLOCK_ROWS = 4096  # CSV lines per text block written
# cells de-duplicated together: 2^15 made the oracle_2d flow table 27 % slower
# (its doubles recur across chunks); 2^17 raised flow's peak RSS by 2.7 MB
_CSV_CHUNK_CELLS = 1 << 16


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Tensor-product grid with uniform spacing per axis.  It keeps read-only
    copies of the axes it is given."""

    axes: tuple

    def __post_init__(self):
        axes = []
        for ax in self.axes:
            ax = np.array(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 3:
                raise InvalidGridError("each axis needs at least 3 nodes")
            d = np.diff(ax)
            h = (ax[-1] - ax[0]) / (ax.size - 1)
            # a node is rounded to about eps |node|, so far from the origin
            # the differences of a linspace axis scatter by that much
            tol = 1e-12 * max(abs(h), 1.0) + 8 * np.finfo(float).eps * np.abs(ax).max()
            if np.any(d <= 0) or np.abs(d - h).max() > tol:
                raise InvalidGridError("axis nodes must be uniformly spaced and increasing")
            ax.setflags(write=False)
            axes.append(ax)
        object.__setattr__(self, "axes", tuple(axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def spacings(self) -> tuple:
        return tuple(float((ax[-1] - ax[0]) / (ax.size - 1)) for ax in self.axes)

    def meshgrid(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def points(self) -> np.ndarray:
        """All nodes as an (n_nodes, dim) array in C order."""
        return _node_table(self.axes)

    def interior_points(self) -> np.ndarray:
        """The nodes off the outermost layer, the only ones a stencil gives a
        value at, as an (n, dim) array in C order."""
        return _node_table([ax[1:-1] for ax in self.axes])


def _node_table(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def make_spatial_grid(bounds, nodes_per_axis) -> SpatialGrid:
    """Grid over a box; ``bounds`` is a sequence of (lo, hi) pairs."""
    if np.isscalar(nodes_per_axis):
        nodes_per_axis = [int(nodes_per_axis)] * len(bounds)
    axes = []
    for (lo, hi), n in zip(bounds, nodes_per_axis):
        if not (hi > lo):
            raise InvalidGridError("box bounds must satisfy hi > lo")
        axes.append(np.linspace(float(lo), float(hi), int(n)))
    return SpatialGrid(tuple(axes))


def quantile_box(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis 1% and 99% quantiles (lo, hi) of the samples X (n, d): the
    box that grids over sampled positions and the kernel oracle's clamp use."""
    lo, hi = np.quantile(X, [0.01, 0.99], axis=0)
    return lo, hi


def _magnitude(vectors: np.ndarray) -> np.ndarray:
    """Euclidean length of each node's vector."""
    return np.sqrt(np.sum(vectors**2, axis=-1))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def _sl(nd: int, axis: int, s) -> tuple:
    idx = [slice(None)] * nd
    idx[axis] = s
    return tuple(idx)


def _axis_d1(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """First derivative along ``axis``; NaN on the outermost layer."""
    n = values.shape[axis]
    nd = values.ndim
    out = np.full_like(values, np.nan)
    f = lambda s: values[_sl(nd, axis, s)]
    if order == 4 and n >= 5:
        out[_sl(nd, axis, slice(2, -2))] = (
            f(slice(0, -4)) - 8 * f(slice(1, -3)) + 8 * f(slice(3, -1)) - f(slice(4, None))
        ) / (12 * h)
        out[_sl(nd, axis, 1)] = (
            -3 * f(0) - 10 * f(1) + 18 * f(2) - 6 * f(3) + f(4)
        ) / (12 * h)
        out[_sl(nd, axis, n - 2)] = (
            3 * f(n - 1) + 10 * f(n - 2) - 18 * f(n - 3) + 6 * f(n - 4) - f(n - 5)
        ) / (12 * h)
    else:
        out[_sl(nd, axis, slice(1, -1))] = (f(slice(2, None)) - f(slice(0, -2))) / (2 * h)
    return out


def divergence(grid: SpatialGrid, F: np.ndarray, order: int = 4) -> np.ndarray:
    """Divergence of a vector or matrix field, contracting its first
    component index: ``sum_i d_i F_i``, or ``(div T)_j = sum_i d_i T_ij``."""
    d = grid.dim
    h = grid.spacings
    out = np.zeros(F.shape[:d] + F.shape[d + 1:])
    for i in range(d):
        out += _axis_d1(F[_sl(F.ndim, d, i)], i, h[i], order)
    return out


def material_derivative(grid: SpatialGrid, v: np.ndarray, dt_v: np.ndarray,
                        order: int = 4) -> np.ndarray:
    """D_t v = the time derivative ``dt_v`` of v plus the advective term
    (v . grad) v."""
    h = grid.spacings
    d = grid.dim
    jac = np.empty(grid.shape + (d, d))  # jac[..., i, j] = d_i v_j
    for i in range(d):
        jac[..., i, :] = _axis_d1(v, i, h[i], order)
    return dt_v + np.einsum("...i,...ij->...j", v, jac)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """A residual field with its norms over the nodes where both it and its
    scale field are finite.

    ``relative`` is ``rms / max(reference, 1e-30)`` where ``reference`` is the
    rms of the operation's scale field over the same nodes.
    """

    residual: np.ndarray
    max_abs: float
    rms: float
    reference: float
    relative: float
    n_nodes: int
    verdict: str | None = None


def _report(values: np.ndarray, ref_mag: np.ndarray) -> ResidualReport:
    """Norms of a scalar or vector residual against the scale ``ref_mag``."""
    mag = np.abs(values) if values.shape == ref_mag.shape else _magnitude(values)
    valid = np.isfinite(mag) & np.isfinite(ref_mag)
    if not np.any(valid):
        raise NoAdmissibleNodesError("no admissible nodes left for residual norms")
    rms = float(np.sqrt(np.mean(mag[valid] ** 2)))
    reference = float(np.sqrt(np.mean(ref_mag[valid] ** 2)))
    return ResidualReport(
        residual=values,
        max_abs=float(mag[valid].max()),
        rms=rms,
        reference=reference,
        relative=rms / max(reference, _REL_FLOOR),
        n_nodes=int(valid.sum()),
    )


def momentum_residual(
    grid: SpatialGrid, rho: np.ndarray, v: np.ndarray, Sigma: np.ndarray, a: np.ndarray,
    dt_rho_v: np.ndarray, order: int = 4,
) -> ResidualReport:
    """Residual of d_t(rho v) + div(rho Sigma) - rho a, given the time
    derivative ``dt_rho_v`` of the momentum density.

    The reference scale is rho (|a| + |v| per unit time).
    """
    div = divergence(grid, rho[..., None, None] * Sigma, order)
    values = dt_rho_v + div - rho[..., None] * a
    return _report(values, rho * (_magnitude(a) + _magnitude(v)))


def balance_residual(
    grid: SpatialGrid, rho: np.ndarray, Pi: np.ndarray, a: np.ndarray, order: int = 4
) -> ResidualReport:
    """Residual of div(rho Pi) - rho a at one time slice.

    Relative norm is measured against rms of rho |a| + |div(rho Pi)|, both
    sides of the balance law, so it never exceeds 1 and stays finite when
    one side vanishes (rho a is 0 for affine interpolants); the verdict is
    ``straight-compatible`` within ``_BALANCE_TOLERANCE``.
    """
    div = divergence(grid, rho[..., None, None] * Pi, order)
    rep = _report(div - rho[..., None] * a, rho * _magnitude(a) + _magnitude(div))
    verdict = ("straight-compatible" if rep.relative <= _BALANCE_TOLERANCE
               else "not-straight-compatible")
    return dataclasses.replace(rep, verdict=verdict)


def continuity_residual(
    grid: SpatialGrid, rho: np.ndarray, v: np.ndarray, dt_rho: np.ndarray, order: int = 4
) -> ResidualReport:
    """Residual of d_t rho + div(rho v), given the time derivative
    ``dt_rho``; reference scale is rho per unit time."""
    return _report(dt_rho + divergence(grid, rho[..., None] * v, order), rho)


def material_residual(
    grid: SpatialGrid, v: np.ndarray, dt_v: np.ndarray, order: int = 4
) -> ResidualReport:
    """Residual of D_t v = 0 (see :func:`material_derivative`), which straight
    flows meet; reference scale is |v|."""
    return _report(material_derivative(grid, v, dt_v, order), _magnitude(v))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def _csv_blocks(lead, values):
    """CSV lines, up to ``_CSV_BLOCK_ROWS`` per yielded block, one per row of
    ``values`` (rows, width).

    ``lead`` is a list of text lists whose C-order product gives each row's
    leading cells: row r starts with ``itertools.product(*lead)``'s r-th tuple
    (an empty ``lead`` leads one row with nothing), and the product must have
    exactly one tuple per row.  Then come Python's shortest round-trip ``repr``
    of each double in the row.  Memory is bounded by a chunk of whole blocks,
    about ``_CSV_CHUNK_CELLS`` cells, in which each distinct double, keyed on
    its int64 bits (-0.0 is not 0.0), is formatted once, as ``"," + repr``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    sizes = [len(cells) for cells in lead]
    n, width = values.shape
    if math.prod(sizes) != n:
        raise InvalidArgumentError(f"the lead product has {math.prod(sizes)} rows, not {n}")
    # the first lead cell goes bare, the others carry their comma
    lead = [np.array(cells if j == 0 else ["," + c for c in cells], dtype=object)
            for j, cells in enumerate(lead)]
    k = len(lead)
    block = np.empty((min(n, _CSV_BLOCK_ROWS), k + width + 1), dtype=object)
    block[:, -1] = "\n"
    rows = max(_CSV_CHUNK_CELLS // (_CSV_BLOCK_ROWS * width), 1) * _CSV_BLOCK_ROWS
    for start in range(0, n, rows):
        chunk = values[start:start + rows]
        bits, inverse = np.unique(chunk.view(np.int64).ravel(), return_inverse=True)
        text = np.array(["," + repr(v) for v in bits.view(float).tolist()], dtype=object)
        inverse = inverse.reshape(chunk.shape)
        for lo in range(0, chunk.shape[0], _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, chunk.shape[0])
            parts = block[:hi - lo]
            if lead:
                for j, index in enumerate(np.unravel_index(np.arange(lo, hi) + start, sizes)):
                    parts[:, j] = lead[j][index]
            parts[:, k:-1] = text[inverse[lo:hi]]
            line = "".join(parts.ravel().tolist())
            yield line if lead else line[1:]  # an empty lead's one row sheds a comma
        del bits, inverse, text  # one chunk's texts at a time


def csv_table(header, lead, values):
    """A CSV table's text, piece by piece: the line of the ``header`` names,
    then the blocks of :func:`_csv_blocks` for ``lead`` and ``values``."""
    yield ",".join(header) + "\n"
    yield from _csv_blocks(lead, values)


def grid_field_to_csv(grid: SpatialGrid, values: np.ndarray) -> str:
    """One row per node of a scalar, vector or matrix field in C order:
    coordinates, then value components.  Refused nodes keep their ``nan``."""
    d = grid.dim
    names = {
        0: ["value"],
        1: [f"v{j}" for j in range(d)],
        2: [f"m{i}{j}" for i in range(d) for j in range(d)],
    }[values.ndim - d]
    coords = [[repr(x) for x in ax.tolist()] for ax in grid.axes]
    header = [f"x{i}" for i in range(d)] + names
    return "".join(csv_table(header, coords, values.reshape(-1, len(names))))
