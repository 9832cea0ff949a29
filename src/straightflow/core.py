"""Interpolant processes, endpoint couplings, time grids and path sampling.

A process is ``X_t = alpha(t) X0 + beta(t) X1 + gamma(t) Z`` with ``(X0, X1)``
drawn from a coupling of the endpoint distributions and ``Z`` a standard
Gaussian latent.  Velocities and accelerations are stored analytically from
the coefficient derivatives, never finite-differenced.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidCouplingError,
    NonFiniteDataError,
)

__all__ = [
    "Coefficient",
    "affine_alpha",
    "affine_beta",
    "trig_alpha",
    "trig_beta",
    "bridge_gamma",
    "Gaussian",
    "GaussianMixture",
    "Empirical",
    "AffineMap",
    "CouplingSpec",
    "ProcessSpec",
    "TimeGrid",
    "EndpointArrays",
    "PathEnsemble",
    "make_time_grid",
    "sample_endpoints",
    "slice_state",
    "sample_paths",
    "save_ensemble",
    "load_ensemble",
    "ENSEMBLE_MAGIC",
    "RNG_LAYOUT",
]

_ENDPOINT_TOL = 1e-12
# Version of the endpoint stream layout: 1 drew each path from its own stream
# keyed by (seed, path_index); 2 draws blocks of _BLOCK_ROWS paths, block b
# from SeedSequence(seed, spawn_key=(b,)).  Bump it whenever the bytes that
# sample_endpoints returns for a given seed change.
RNG_LAYOUT = 2
_BLOCK_ROWS = 4096
# Auxiliary RNG streams (controls, subsamples, flow start points) are plain
# tuple keys (seed, _AUX_BASE + k).  A block stream's spawn key pads the seed
# to the full entropy pool before appending the block index, so the two
# families never share a stream.
_AUX_BASE = 2**62


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# time coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coefficient:
    """A twice-differentiable scalar coefficient of time on [0, 1].

    ``value``, ``d1`` and ``d2`` are vectorized callables.  ``name`` is used
    in reports and config round-trips.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.value(t)


def affine_alpha() -> Coefficient:
    return Coefficient(
        "1-t",
        lambda t: 1.0 - np.asarray(t, dtype=float),
        lambda t: np.full_like(np.asarray(t, dtype=float), -1.0),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def affine_beta() -> Coefficient:
    return Coefficient(
        "t",
        lambda t: np.asarray(t, dtype=float) + 0.0,
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def trig_alpha() -> Coefficient:
    w = np.pi / 2
    return Coefficient(
        "cos(pi t/2)",
        lambda t: np.cos(w * np.asarray(t, dtype=float)),
        lambda t: -w * np.sin(w * np.asarray(t, dtype=float)),
        lambda t: -(w**2) * np.cos(w * np.asarray(t, dtype=float)),
    )


def trig_beta() -> Coefficient:
    w = np.pi / 2
    return Coefficient(
        "sin(pi t/2)",
        lambda t: np.sin(w * np.asarray(t, dtype=float)),
        lambda t: w * np.cos(w * np.asarray(t, dtype=float)),
        lambda t: -(w**2) * np.sin(w * np.asarray(t, dtype=float)),
    )


def bridge_gamma() -> Coefficient:
    """Latent-noise coefficient sqrt(t(1-t)).

    Its derivatives diverge at t=0 and t=1; slice consumers must stay on
    interior times when they need finite velocities.
    """

    def val(t):
        t = np.asarray(t, dtype=float)
        return np.sqrt(np.clip(t * (1.0 - t), 0.0, None))

    def d1(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (1.0 - 2.0 * t) / (2.0 * val(t))
        return out

    def d2(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -(1.0 + d1(t) ** 2) / val(t)
        return out

    return Coefficient("sqrt(t(1-t))", val, d1, d2)


# ---------------------------------------------------------------------------
# endpoint distribution descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal descriptor."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.mean))
        cov = _readonly(np.atleast_2d(self.cov))
        if cov.shape != (mean.size, mean.size):
            raise InvalidArgumentError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise InvalidArgumentError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def moments(self):
        return self.mean, self.cov

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        root = _psd_sqrt(self.cov)
        return self.mean + rng.standard_normal((n, self.dim)) @ root.T


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture descriptor."""

    weights: np.ndarray
    means: np.ndarray  # (k, d)
    covs: np.ndarray  # (k, d, d)

    def __post_init__(self):
        w = _readonly(np.atleast_1d(self.weights))
        means = _readonly(np.atleast_2d(self.means))
        covs = _readonly(np.asarray(self.covs, dtype=float))
        if w.ndim != 1 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError("mixture weights must be nonnegative and sum to 1")
        if covs.shape != (w.size, means.shape[1], means.shape[1]) or means.shape[0] != w.size:
            raise InvalidArgumentError("mixture component shapes are inconsistent")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def moments(self):
        mean = self.weights @ self.means
        cov = np.zeros((self.dim, self.dim))
        for w, m, c in zip(self.weights, self.means, self.covs):
            dm = m - mean
            cov += w * (c + np.outer(dm, dm))
        return mean, cov

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Component labels for all ``n`` rows first, then all normals."""
        roots = np.stack([_psd_sqrt(c) for c in self.covs])
        k = np.searchsorted(np.cumsum(self.weights), rng.random(n), side="right")
        k = np.minimum(k, self.weights.size - 1)
        u = rng.standard_normal((n, self.dim))
        return self.means[k] + np.einsum("nij,nj->ni", roots[k], u)


@dataclass(frozen=True)
class Empirical:
    """Sample-list descriptor; draws rows with replacement.

    When both endpoints of a ``deterministic_map`` coupling are empirical with
    equal length and no affine map is given, rows are paired by index: this is
    how a tabulated (non-affine) transport map enters.
    """

    samples: np.ndarray  # (n, d); a 1-d input is read as n scalar samples

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s.reshape(-1, 1)
        if s.ndim != 2 or s.shape[0] < 1:
            raise InvalidArgumentError("empirical descriptor needs at least one sample row")
        if not np.all(np.isfinite(s)):
            raise NonFiniteDataError("empirical samples must be finite")
        object.__setattr__(self, "samples", _readonly(s))

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def moments(self):
        mean = self.samples.mean(axis=0)
        cov = np.cov(self.samples, rowvar=False, ddof=1) if self.samples.shape[0] > 1 else np.zeros((self.dim, self.dim))
        return mean, np.atleast_2d(cov)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, self.samples.shape[0], size=n)
        return self.samples[idx]


Distribution = Gaussian | GaussianMixture | Empirical


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition with a small floor."""
    vals, vecs = np.linalg.eigh(np.atleast_2d(cov))
    floor = 1e-12 * max(float(vals.max(initial=0.0)), 0.0)
    vals = np.clip(vals, 0.0, None)
    vals[vals < floor] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.T


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        b = _readonly(np.atleast_1d(self.b))
        if A.shape[0] != A.shape[1] or A.shape[0] != b.size:
            raise InvalidArgumentError("affine map shapes are inconsistent")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise NonFiniteDataError("affine map entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.A.T + self.b


COUPLING_KINDS = ("independent", "deterministic_map", "gaussian_joint")


@dataclass(frozen=True)
class CouplingSpec:
    """Joint law of the endpoint pair (X0, X1) with marginals mu0, mu1."""

    kind: str
    mu0: Distribution
    mu1: Distribution
    map: AffineMap | None = None
    joint_mean: np.ndarray | None = None
    joint_cov: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise InvalidCouplingError(f"unknown coupling kind {self.kind!r}")
        if self.mu0.dim != self.mu1.dim:
            raise InvalidCouplingError("endpoint distributions must share a dimension")
        d = self.mu0.dim
        if self.kind == "deterministic_map":
            self._check_deterministic(d)
        elif self.kind == "gaussian_joint":
            self._check_joint(d)

    def _check_deterministic(self, d: int):
        if self.map is None:
            tabulated = (
                isinstance(self.mu0, Empirical)
                and isinstance(self.mu1, Empirical)
                and self.mu0.samples.shape[0] == self.mu1.samples.shape[0]
            )
            if not tabulated:
                raise InvalidCouplingError(
                    "deterministic_map needs an affine map, or paired empirical "
                    "endpoint samples of equal length (tabulated map)"
                )
            return
        if isinstance(self.mu0, Gaussian) and isinstance(self.mu1, Gaussian):
            A, b = self.map.A, self.map.b
            push_cov = A @ self.mu0.cov @ A.T
            push_mean = A @ self.mu0.mean + b
            scale = max(np.abs(self.mu1.cov).max(), 1.0)
            if np.abs(push_cov - self.mu1.cov).max() > 1e-9 * scale or np.abs(
                push_mean - self.mu1.mean
            ).max() > 1e-9 * max(np.abs(self.mu1.mean).max(), 1.0):
                raise InvalidCouplingError(
                    "pushforward of mu0 under the map does not match mu1"
                )

    def _check_joint(self, d: int):
        if self.joint_cov is None:
            raise InvalidCouplingError("gaussian_joint needs a 2d x 2d covariance")
        cov = np.atleast_2d(np.asarray(self.joint_cov, dtype=float))
        mean = (
            np.zeros(2 * d)
            if self.joint_mean is None
            else np.atleast_1d(np.asarray(self.joint_mean, dtype=float))
        )
        if cov.shape != (2 * d, 2 * d) or mean.size != 2 * d:
            raise InvalidCouplingError("joint mean/covariance have wrong shape")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise InvalidCouplingError("joint covariance must be symmetric")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() < -1e-10 * max(float(np.trace(cov)), 1.0):
            raise InvalidCouplingError("joint covariance is not positive semidefinite")
        object.__setattr__(self, "joint_mean", _readonly(mean))
        object.__setattr__(self, "joint_cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mu0.dim


def gaussian_joint_coupling(mean: np.ndarray, cov: np.ndarray) -> CouplingSpec:
    """Build a gaussian_joint coupling; the marginals are read off the blocks."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean.size % 2 != 0:
        raise InvalidCouplingError("joint mean must have even length 2d")
    d = mean.size // 2
    mu0 = Gaussian(mean[:d], cov[:d, :d])
    mu1 = Gaussian(mean[d:], cov[d:, d:])
    return CouplingSpec("gaussian_joint", mu0, mu1, joint_mean=mean, joint_cov=cov)


# ---------------------------------------------------------------------------
# process spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """Recipe for an interpolant process: time coefficients plus a coupling."""

    alpha: Coefficient
    beta: Coefficient
    coupling: CouplingSpec
    dim: int
    gamma: Coefficient | None = None

    def __post_init__(self):
        if self.dim != self.coupling.dim:
            raise InvalidArgumentError(
                f"spec dim {self.dim} does not match coupling dim {self.coupling.dim}"
            )
        checks = [
            (float(self.alpha(0.0)), 1.0, "alpha(0)=1"),
            (float(self.alpha(1.0)), 0.0, "alpha(1)=0"),
            (float(self.beta(0.0)), 0.0, "beta(0)=0"),
            (float(self.beta(1.0)), 1.0, "beta(1)=1"),
        ]
        if self.gamma is not None:
            checks += [
                (float(self.gamma(0.0)), 0.0, "gamma(0)=0"),
                (float(self.gamma(1.0)), 0.0, "gamma(1)=0"),
            ]
        for got, want, label in checks:
            if abs(got - want) > _ENDPOINT_TOL:
                raise InvalidArgumentError(
                    f"coefficient endpoint contract violated: {label}, got {got}"
                )

    @property
    def is_affine(self) -> bool:
        """True for alpha=1-t, beta=t with no latent term."""
        if self.gamma is not None:
            return False
        probes = np.array([0.0, 0.23, 0.5, 0.77, 1.0])
        return bool(
            np.all(np.abs(self.alpha(probes) - (1.0 - probes)) <= _ENDPOINT_TOL)
            and np.all(np.abs(self.beta(probes) - probes) <= _ENDPOINT_TOL)
        )


# ---------------------------------------------------------------------------
# time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of times spanning [0, 1]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _readonly(np.atleast_1d(self.nodes))
        if nodes.size < 2:
            raise InvalidArgumentError("time grid needs at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise InvalidArgumentError("time grid must span [0, 1] exactly")
        diffs = np.diff(nodes)
        if np.any(diffs <= 0):
            raise InvalidArgumentError("time nodes must be strictly increasing")
        step = 1.0 / (nodes.size - 1)
        if np.abs(diffs - step).max() > 1e-12 * max(abs(step), 1.0):
            raise InvalidArgumentError("time grid spacing must be uniform")
        object.__setattr__(self, "nodes", nodes)

    @property
    def step(self) -> float:
        return 1.0 / (self.nodes.size - 1)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def index_of(self, t: float) -> int:
        """Index of the grid node equal to ``t`` (within rounding)."""
        k = int(round(t / self.step))
        if k < 0 or k >= self.n_nodes or abs(self.nodes[k] - t) > 1e-9:
            raise InvalidArgumentError(f"time {t} is not a grid node")
        return k


def make_time_grid(n_steps: int) -> TimeGrid:
    """Uniform grid with ``n_steps`` intervals on [0, 1]."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise InvalidArgumentError("n_steps must be a positive integer")
    return TimeGrid(np.linspace(0.0, 1.0, int(n_steps) + 1))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointArrays:
    """All endpoint draws of an ensemble, stacked."""

    x0: np.ndarray  # (n, d)
    x1: np.ndarray  # (n, d)
    z: np.ndarray | None  # (n, d) or None
    seed: int

    @property
    def n(self) -> int:
        return self.x0.shape[0]


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _draw_block(coupling: CouplingSpec, rng: np.random.Generator, latent: bool):
    """One full block of ``_BLOCK_ROWS`` endpoint rows: mu0 (or the joint
    normals, or the tabulated row index), then mu1, then the latent."""
    rows = _BLOCK_ROWS
    if coupling.kind == "gaussian_joint":
        d = coupling.dim
        u = rng.standard_normal((rows, 2 * d))
        pair = coupling.joint_mean + u @ _psd_sqrt(coupling.joint_cov).T
        x0, x1 = pair[:, :d], pair[:, d:]
    elif coupling.kind == "independent":
        x0 = coupling.mu0.draw(rng, rows)
        x1 = coupling.mu1.draw(rng, rows)
    elif coupling.map is None:  # tabulated deterministic map: paired rows
        j = rng.integers(0, coupling.mu0.samples.shape[0], size=rows)
        x0, x1 = coupling.mu0.samples[j], coupling.mu1.samples[j]
    else:
        x0 = coupling.mu0.draw(rng, rows)
        x1 = coupling.map(x0)
    z = rng.standard_normal((rows, coupling.dim)) if latent else None
    return x0, x1, z


def sample_endpoints(spec: ProcessSpec, n: int, seed: int) -> EndpointArrays:
    """Draw ``n`` endpoint pairs from ``spec.coupling``, and the latent when
    ``spec.gamma`` is set.

    Paths come in blocks of ``_BLOCK_ROWS``; block b draws from its own
    stream keyed by ``(seed, b)`` and always draws the full block, keeping the
    rows it needs.  So path i does not depend on how many paths are sampled
    (a prefix of a larger draw is bit-identical), and the latent, drawn last,
    leaves x0 and x1 unchanged.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if seed < 0:
        raise InvalidArgumentError("seed must be nonnegative")
    coupling, latent = spec.coupling, spec.gamma is not None
    if coupling.kind == "deterministic_map" and not isinstance(coupling.map, AffineMap | None):
        raise InvalidCouplingError("deterministic_map requires an affine map")
    d = coupling.dim
    x0 = np.empty((n, d))
    x1 = np.empty((n, d))
    z = np.empty((n, d)) if latent else None
    for b, lo in enumerate(range(0, n, _BLOCK_ROWS)):
        hi = min(lo + _BLOCK_ROWS, n)
        b0, b1, bz = _draw_block(coupling, _block_rng(seed, b), latent)
        x0[lo:hi] = b0[: hi - lo]
        x1[lo:hi] = b1[: hi - lo]
        if latent:
            z[lo:hi] = bz[: hi - lo]
    return EndpointArrays(
        _readonly(x0), _readonly(x1), _readonly(z) if z is not None else None, int(seed)
    )


def slice_state(
    spec: ProcessSpec, endpoints: EndpointArrays, t: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities and accelerations of all paths at time(s) ``t``.

    For scalar ``t`` the returned arrays have shape (n, d); for a vector of K
    times they have shape (n, K, d).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tk = np.atleast_1d(t_arr)

    a, ad, add = spec.alpha(tk), spec.alpha.d1(tk), spec.alpha.d2(tk)
    b, bd, bdd = spec.beta(tk), spec.beta.d1(tk), spec.beta.d2(tk)
    x0 = endpoints.x0[:, None, :]
    x1 = endpoints.x1[:, None, :]
    coef = lambda c: c[None, :, None]
    pos = coef(a) * x0 + coef(b) * x1
    vel = coef(ad) * x0 + coef(bd) * x1
    acc = coef(add) * x0 + coef(bdd) * x1
    if spec.gamma is not None:
        if endpoints.z is None:
            raise InvalidArgumentError("spec has a latent term but endpoints carry no z")
        g, gd, gdd = spec.gamma(tk), spec.gamma.d1(tk), spec.gamma.d2(tk)
        zz = endpoints.z[:, None, :]
        pos = pos + coef(g) * zz
        with np.errstate(invalid="ignore"):
            vel = vel + coef(gd) * zz
            acc = acc + coef(gdd) * zz
    if scalar:
        return pos[:, 0, :], vel[:, 0, :], acc[:, 0, :]
    return pos, vel, acc


@dataclass(frozen=True)
class PathEnsemble:
    """N sampled trajectories on a shared time grid: the in-memory form of
    ``ensemble.sflw``.

    Velocities and accelerations are exact coefficient-derivative values, so
    e.g. an affine process carries an identically-zero acceleration array.
    """

    grid: TimeGrid
    positions: np.ndarray  # (N, K, d)
    velocities: np.ndarray
    accelerations: np.ndarray

    def __post_init__(self):
        shape = self.positions.shape
        if len(shape) != 3 or shape[1] != self.grid.n_nodes:
            raise InvalidArgumentError("positions must have shape (N, K, d)")
        for name in ("velocities", "accelerations"):
            if getattr(self, name).shape != shape:
                raise InvalidArgumentError(f"{name} shape does not match positions")
        for name in ("positions", "velocities", "accelerations"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_paths(self) -> int:
        return int(self.positions.shape[0])

    @property
    def dim(self) -> int:
        return int(self.positions.shape[2])


def sample_paths(spec: ProcessSpec, n: int, grid: TimeGrid, seed: int) -> PathEnsemble:
    """Sample a path ensemble for ``spec`` on ``grid``."""
    endpoints = sample_endpoints(spec, n, seed)
    pos, vel, acc = slice_state(spec, endpoints, grid.nodes)
    return PathEnsemble(grid, pos, vel, acc)


# ---------------------------------------------------------------------------
# flat binary persistence
# ---------------------------------------------------------------------------

ENSEMBLE_MAGIC = b"SFLW1"


def save_ensemble(ensemble: PathEnsemble, path) -> None:
    """Write the flat binary format: magic, N/K/d as little-endian u64,
    then row-major float64 positions, velocities, accelerations."""
    n, k, d = ensemble.positions.shape
    with open(path, "wb") as fh:
        fh.write(ENSEMBLE_MAGIC)
        fh.write(struct.pack("<QQQ", n, k, d))
        for arr in (ensemble.positions, ensemble.velocities, ensemble.accelerations):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_ensemble(path) -> PathEnsemble:
    """Read the flat binary format written by :func:`save_ensemble`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(ENSEMBLE_MAGIC))
        if magic != ENSEMBLE_MAGIC:
            raise InvalidArgumentError(f"bad magic {magic!r}; not an ensemble file")
        n, k, d = struct.unpack("<QQQ", fh.read(24))
        count = n * k * d
        arrays = []
        for _ in range(3):
            buf = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
            arrays.append(buf.reshape(n, k, d).astype(float))
        if fh.read(1):
            raise InvalidArgumentError("trailing bytes after ensemble payload")
    grid = make_time_grid(int(k) - 1)
    return PathEnsemble(grid, *arrays)


def aux_rng(seed: int, tag: int) -> np.random.Generator:
    """Deterministic auxiliary stream (controls, subsampling, flow start
    points) keyed by ``(seed, 2^62 + tag)``; disjoint from the endpoint block
    streams, whose spawn keys pad the seed to the full entropy pool."""
    entropy = int(seed) % (2**63)  # seeds from 2^63 up fold into [0, 2^63)
    return np.random.default_rng((entropy, _AUX_BASE + int(tag)))
