"""Finite-difference calculus on tensor-product grids and PDE residuals.

First derivatives use central differences.  With ``order=4`` (the default,
appropriate for smooth analytic fields) a five-point stencil is used at every
interior node, switching to the offset five-point stencil one node in from
each boundary.  ``order=2`` (three-point central) is preferred for noisy
estimated fields, where higher-order stencils amplify sampling noise.  Both
are exact on quadratics.  The outermost node layer never receives a value and
is always masked out.

The divergence of a matrix field contracts the FIRST index:
``(div T)_j = sum_i d_i T_ij``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidGridError, NoAdmissibleNodesError

__all__ = [
    "SpatialGrid",
    "GridField",
    "ResidualReport",
    "make_spatial_grid",
    "grid_fields",
    "quantile_box",
    "grid_gradient",
    "grid_divergence_vector",
    "grid_divergence_matrix",
    "material_derivative",
    "momentum_residual",
    "balance_residual",
    "continuity_residual",
    "material_residual",
    "grid_field_to_csv",
]

_REL_FLOOR = 1e-30
_CSV_BLOCK_ROWS = 4096  # CSV lines per text block written


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Tensor-product grid with uniform spacing per axis and a node mask.

    ``mask`` marks admissible nodes; the outermost layer on each axis is
    forced inadmissible because no centered stencil exists there.
    """

    axes: tuple
    mask: np.ndarray | None = None

    def __post_init__(self):
        axes = []
        for ax in self.axes:
            ax = np.ascontiguousarray(ax, dtype=float)
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
        interior = np.ones(self.shape, dtype=bool)
        for axis in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[axis] = 0
            interior[tuple(sl)] = False
            sl[axis] = -1
            interior[tuple(sl)] = False
        mask = interior if self.mask is None else (np.asarray(self.mask, dtype=bool) & interior)
        if mask.shape != self.shape:
            raise InvalidGridError("mask shape does not match grid shape")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

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
        mesh = self.meshgrid()
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def with_mask(self, mask: np.ndarray) -> "SpatialGrid":
        return SpatialGrid(self.axes, mask)

    def same_axes(self, other: "SpatialGrid") -> bool:
        return self.dim == other.dim and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


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


_RANKS = ("scalar", "vector", "matrix")


@dataclass(frozen=True)
class GridField:
    """Scalar/vector/matrix values tabulated on a grid at one time slice."""

    grid: SpatialGrid
    rank: str
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.rank not in _RANKS:
            raise InvalidArgumentError(f"unknown rank {self.rank!r}")
        d = self.grid.dim
        expected = {
            "scalar": self.grid.shape,
            "vector": self.grid.shape + (d,),
            "matrix": self.grid.shape + (d, d),
        }[self.rank]
        values = np.asarray(self.values, dtype=float)
        if values.shape != expected:
            raise InvalidArgumentError(
                f"{self.rank} field values must have shape {expected}, got {values.shape}"
            )
        mag = _pointwise_mag(values, self.rank)
        if not np.all(np.isfinite(mag[self.grid.mask])):
            raise InvalidArgumentError("field values must be finite at admissible nodes")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.grid.dim


def grid_fields(grid: SpatialGrid, t: float, values: dict) -> dict:
    """GridFields at time t from per-node arrays in the C order of
    ``grid.points()``: an (n_nodes,) array is a scalar field, (n_nodes, d) a
    vector and (n_nodes, d, d) a matrix field."""
    ranks = {1: "scalar", 2: "vector", 3: "matrix"}
    return {name: GridField(grid, ranks[arr.ndim], arr.reshape(grid.shape + arr.shape[1:]), t)
            for name, arr in values.items()}


def _pointwise_mag(values: np.ndarray, rank: str) -> np.ndarray:
    if rank == "scalar":
        return np.abs(values)
    if rank == "vector":
        return np.sqrt(np.sum(values**2, axis=-1))
    return np.sqrt(np.sum(values**2, axis=(-2, -1)))


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


def grid_gradient(f: GridField, order: int = 4) -> GridField:
    """Gradient of a scalar field as a vector field."""
    if f.rank != "scalar":
        raise InvalidArgumentError("grid_gradient expects a scalar field")
    h = f.grid.spacings
    comps = [_axis_d1(f.values, i, h[i], order) for i in range(f.dim)]
    values = np.stack(comps, axis=-1)
    return GridField(_narrow(f.grid, values, "vector"), "vector", values, f.time)


def grid_divergence_vector(f: GridField, order: int = 4) -> GridField:
    """Divergence of a vector field: sum_i d_i F_i."""
    if f.rank != "vector":
        raise InvalidArgumentError("grid_divergence_vector expects a vector field")
    h = f.grid.spacings
    out = np.zeros(f.grid.shape)
    for i in range(f.dim):
        out = out + _axis_d1(f.values[..., i], i, h[i], order)
    return GridField(_narrow(f.grid, out, "scalar"), "scalar", out, f.time)


def grid_divergence_matrix(T: GridField, order: int = 4) -> GridField:
    """Divergence of a matrix field, contracting the first index:
    ``(div T)_j = sum_i d_i T_ij``."""
    if T.rank != "matrix":
        raise InvalidArgumentError("grid_divergence_matrix expects a matrix field")
    h = T.grid.spacings
    d = T.dim
    out = np.zeros(T.grid.shape + (d,))
    for j in range(d):
        for i in range(d):
            out[..., j] = out[..., j] + _axis_d1(T.values[..., i, j], i, h[i], order)
    return GridField(_narrow(T.grid, out, "vector"), "vector", out, T.time)


def _narrow(grid: SpatialGrid, values: np.ndarray, rank: str) -> SpatialGrid:
    """Restrict the mask to nodes where the computed values are finite."""
    finite = np.isfinite(_pointwise_mag(values, rank))
    return grid.with_mask(grid.mask & finite)


def _check_fields(*fields_and_ranks):
    """Each (field, rank) pair has that rank, and all share one spatial grid."""
    first = fields_and_ranks[0][0]
    for f, rank in fields_and_ranks:
        if f.rank != rank:
            raise InvalidArgumentError(f"expected a {rank} field, got a {f.rank} one")
        if not f.grid.same_axes(first.grid):
            raise InvalidArgumentError("all fields must share one spatial grid")


def material_derivative(v: GridField, dt_v: GridField, order: int = 4) -> GridField:
    """D_t v = the time derivative ``dt_v`` of v plus the advective term
    (v . grad) v."""
    _check_fields((v, "vector"), (dt_v, "vector"))
    h = v.grid.spacings
    d = v.dim
    jac = np.empty(v.grid.shape + (d, d))  # jac[..., i, j] = d_i v_j
    for i in range(d):
        jac[..., i, :] = _axis_d1(v.values, i, h[i], order)
    adv = np.einsum("...i,...ij->...j", v.values, jac)
    values = dt_v.values + adv
    grid = v.grid.with_mask(v.grid.mask & dt_v.grid.mask)
    return GridField(_narrow(grid, values, "vector"), "vector", values, v.time)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """A residual field with its masked norms.

    ``relative`` is ``rms / max(reference, 1e-30)`` where ``reference`` is the
    rms of the operation's scale field over the same mask.
    """

    residual: GridField
    max_abs: float
    rms: float
    reference: float
    relative: float
    n_nodes: int
    verdict: str | None = None


def _report(values, rank, grid, ref_mag, time) -> ResidualReport:
    mag = _pointwise_mag(values, rank)
    valid = grid.mask & np.isfinite(mag) & np.isfinite(ref_mag)
    if not np.any(valid):
        raise NoAdmissibleNodesError("no admissible nodes left for residual norms")
    max_abs = float(mag[valid].max())
    rms = float(np.sqrt(np.mean(mag[valid] ** 2)))
    reference = float(np.sqrt(np.mean(ref_mag[valid] ** 2)))
    relative = rms / max(reference, _REL_FLOOR)
    res_field = GridField(grid.with_mask(valid), rank, values, time)
    return ResidualReport(
        residual=res_field,
        max_abs=max_abs,
        rms=rms,
        reference=reference,
        relative=relative,
        n_nodes=int(valid.sum()),
    )


def momentum_residual(
    rho: GridField, v: GridField, Sigma: GridField, a: GridField, dt_rho_v: GridField,
    order: int = 4,
) -> ResidualReport:
    """Residual of d_t(rho v) + div(rho Sigma) - rho a, given the time
    derivative ``dt_rho_v`` of the momentum density.

    The reference scale is rho (|a| + |v| per unit time).
    """
    _check_fields((rho, "scalar"), (v, "vector"), (Sigma, "matrix"), (a, "vector"),
                  (dt_rho_v, "vector"))
    rho_sigma = GridField(
        Sigma.grid.with_mask(Sigma.grid.mask & rho.grid.mask),
        "matrix",
        rho.values[..., None, None] * Sigma.values,
        Sigma.time,
    )
    div = grid_divergence_matrix(rho_sigma, order)
    values = dt_rho_v.values + div.values - rho.values[..., None] * a.values

    ref_mag = rho.values * (
        _pointwise_mag(a.values, "vector") + _pointwise_mag(v.values, "vector")
    )
    grid = rho.grid.with_mask(
        rho.grid.mask & v.grid.mask & Sigma.grid.mask & a.grid.mask & dt_rho_v.grid.mask
    )
    return _report(values, "vector", grid, ref_mag, rho.time)


def balance_residual(
    rho: GridField, Pi: GridField, a: GridField, order: int = 4, tolerance: float = 1e-3
) -> ResidualReport:
    """Residual of div(rho Pi) - rho a at one time slice.

    Relative norm is measured against rms of rho |a| + |div(rho Pi)|, both
    sides of the balance law, so it never exceeds 1 and stays finite when
    one side vanishes (rho a is 0 for affine interpolants); verdict is
    ``straight-compatible`` when the relative rms is within ``tolerance``.
    """
    _check_fields((rho, "scalar"), (Pi, "matrix"), (a, "vector"))
    rho_pi = GridField(
        Pi.grid.with_mask(Pi.grid.mask & rho.grid.mask),
        "matrix",
        rho.values[..., None, None] * Pi.values,
        Pi.time,
    )
    div = grid_divergence_matrix(rho_pi, order)
    values = div.values - rho.values[..., None] * a.values
    ref_mag = rho.values * _pointwise_mag(a.values, "vector") + _pointwise_mag(
        div.values, "vector"
    )
    grid = rho.grid.with_mask(rho.grid.mask & Pi.grid.mask & a.grid.mask)
    rep = _report(values, "vector", grid, ref_mag, rho.time)
    verdict = "straight-compatible" if rep.relative <= tolerance else "not-straight-compatible"
    return dataclasses.replace(rep, verdict=verdict)


def continuity_residual(
    rho: GridField, v: GridField, dt_rho: GridField, order: int = 4
) -> ResidualReport:
    """Residual of d_t rho + div(rho v), given the time derivative
    ``dt_rho``; reference scale is rho per unit time."""
    _check_fields((rho, "scalar"), (v, "vector"), (dt_rho, "scalar"))
    flux = GridField(rho.grid.with_mask(rho.grid.mask & v.grid.mask), "vector",
                     rho.values[..., None] * v.values, rho.time)
    div = grid_divergence_vector(flux, order)
    values = dt_rho.values + div.values
    grid = rho.grid.with_mask(rho.grid.mask & v.grid.mask & dt_rho.grid.mask)
    return _report(values, "scalar", grid, rho.values, rho.time)


def material_residual(v: GridField, dt_v: GridField, order: int = 4) -> ResidualReport:
    """Residual of D_t v = 0 (see :func:`material_derivative`), which straight
    flows meet; reference scale is |v|."""
    dtv = material_derivative(v, dt_v, order=order)
    return _report(dtv.values, "vector", dtv.grid, _pointwise_mag(v.values, "vector"), v.time)


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
    of each double in the row.  Each distinct double is formatted once, keyed
    on its int64 bits, which keep -0.0 apart from 0.0; each block is one
    ``"".join`` over an object array of its texts, commas and newlines.
    """
    values = np.ascontiguousarray(values, dtype=float)
    sizes = [len(cells) for cells in lead]
    n = values.shape[0]
    if math.prod(sizes) != n:
        raise InvalidArgumentError(f"the lead product has {math.prod(sizes)} rows, not {n}")
    lead = [np.array(cells, dtype=object) for cells in lead]
    bits = values.view(np.int64).ravel()
    order = np.argsort(bits, kind="stable")
    sorted_bits = bits[order]
    first = np.ones(bits.size, dtype=bool)  # the first of each run of equal bits
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=first[1:])
    del sorted_bits
    text = np.array([repr(v) for v in values.ravel()[order[first]].tolist()], dtype=object)
    rank = first.astype(np.intp)  # cumsum of a bool array would copy it to intp first
    np.cumsum(rank, out=rank)
    rank -= 1  # the index into text of each sorted cell
    inverse = np.empty_like(order)
    inverse[order] = rank
    del order, rank  # only the index of each cell is held while the text is built
    inverse = inverse.reshape(values.shape)
    k = len(lead)
    # one row of texts per line: even columns hold the lead's and the cells'
    # texts, refilled per block; odd ones the "," between them and, last, "\n"
    block = np.full((min(n, _CSV_BLOCK_ROWS), 2 * (k + values.shape[1])), ",", dtype=object)
    block[:, -1] = "\n"
    for lo in range(0, n, _CSV_BLOCK_ROWS):
        hi = min(lo + _CSV_BLOCK_ROWS, n)
        parts = block[:hi - lo]
        if lead:
            for j, index in enumerate(np.unravel_index(np.arange(lo, hi), sizes)):
                parts[:, 2 * j] = lead[j][index]
        parts[:, 2 * k::2] = text[inverse[lo:hi]]
        yield "".join(parts.ravel().tolist())


def grid_field_to_csv(field: GridField) -> str:
    """One row per node in C order: coordinates, then value components.

    Inadmissible nodes keep whatever is stored, typically ``nan`` sentinels
    for estimated fields.
    """
    d = field.dim
    names = {
        "scalar": ["value"],
        "vector": [f"v{j}" for j in range(d)],
        "matrix": [f"m{i}{j}" for i in range(d) for j in range(d)],
    }[field.rank]
    coords = [[repr(x) for x in ax.tolist()] for ax in field.grid.axes]
    rows = _csv_blocks(coords, field.values.reshape(-1, len(names)))
    return ",".join([f"x{i}" for i in range(d)] + names) + "\n" + "".join(rows)
