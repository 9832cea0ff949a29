"""Interpolant processes, endpoint couplings, time nodes and path sampling.

A process is ``X_t = alpha(t) X0 + beta(t) X1 + gamma(t) Z`` with ``(X0, X1)``
drawn from a coupling of the endpoint distributions and ``Z`` a standard
Gaussian latent.  Velocities and accelerations are stored analytically from
the coefficient derivatives, never finite-differenced.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidCouplingError,
    NonFiniteDataError,
)

__all__ = [
    "COEFFICIENTS",
    "coefficient_values",
    "Gaussian",
    "GaussianMixture",
    "Empirical",
    "AffineMap",
    "CouplingSpec",
    "ProcessSpec",
    "EndpointArrays",
    "time_nodes",
    "sample_endpoints",
    "slice_state",
    "save_ensemble",
    "load_ensemble",
    "ENSEMBLE_MAGIC",
    "RNG_LAYOUT",
]

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

# The coefficient families, each with the report labels of alpha, beta and
# gamma (None where the process has no latent term).  The config's
# ``coefficients`` enum lists these names, in this order.
COEFFICIENTS = {
    "affine": ("1-t", "t", None),
    "trig": ("cos(pi t/2)", "sin(pi t/2)", None),
    "latent": ("1-t", "t", "sqrt(t(1-t))"),
}
_W = np.pi / 2  # the trig family's angular rate


def _check_family(family: str) -> None:
    if family not in COEFFICIENTS:
        raise InvalidArgumentError(
            f"unknown coefficient family {family!r}; known: {list(COEFFICIENTS)}"
        )


def coefficient_values(family: str, t):
    """a, a', a'', b, b', b'', g, g', g'' of ``family`` at ``t``, a scalar or
    an array of times; each value has the shape of ``t``.  g and its
    derivatives are 0 in a family without a latent term.

    The latent bridge g = sqrt(t(1-t)) has infinite derivatives at t = 0 and
    t = 1; consumers that need finite velocities stay on interior times.
    """
    _check_family(family)
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    if family == "trig":
        cos, sin = np.cos(_W * t), np.sin(_W * t)
        return cos, -_W * sin, -(_W**2) * cos, sin, _W * cos, -(_W**2) * sin, zero, zero, zero
    ab = (1.0 - t, np.full_like(t, -1.0), zero, t + 0.0, np.ones_like(t), zero)
    if family == "affine":
        return ab + (zero, zero, zero)
    g = np.sqrt(np.clip(t * (1.0 - t), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        gd = (1.0 - 2.0 * t) / (2.0 * g)
        gdd = -(1.0 + gd**2) / g
    return ab + (g, gd, gdd)


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
        _check_gaussian(mean, cov, "Gaussian")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

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
        for mean, cov in zip(means, covs):
            _check_gaussian(mean, cov, "mixture component")
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

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, self.samples.shape[0], size=n)
        return self.samples[idx]


Distribution = Gaussian | GaussianMixture | Empirical


def _check_gaussian(mean: np.ndarray, cov: np.ndarray, what: str) -> None:
    """Refuse a mean that is not finite, and a covariance that is not finite,
    not symmetric, or indefinite: its lowest eigenvalue below
    -1e-10 max(trace, 1)."""
    if not np.all(np.isfinite(mean)):
        raise NonFiniteDataError(f"{what} mean must be finite")
    if not np.all(np.isfinite(cov)):
        raise NonFiniteDataError(f"{what} covariance must be finite")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise InvalidArgumentError(f"{what} covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-10 * max(float(np.trace(cov)), 1.0):
        raise InvalidArgumentError(f"{what} covariance is not positive semidefinite")


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
    joint: Gaussian | None = None  # the law of the pair (X0, X1) of a gaussian_joint

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise InvalidCouplingError(f"unknown coupling kind {self.kind!r}")
        if self.mu0.dim != self.mu1.dim:
            raise InvalidCouplingError("endpoint distributions must share a dimension")
        d = self.mu0.dim
        if self.kind == "deterministic_map":
            self._check_deterministic(d)
        elif self.kind == "gaussian_joint" and not (
            isinstance(self.joint, Gaussian) and self.joint.dim == 2 * d
        ):
            raise InvalidCouplingError(f"gaussian_joint needs a {2 * d}-dimensional Gaussian joint")

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
    try:
        joint = Gaussian(mean, cov)
        mu0 = Gaussian(mean[:d], cov[:d, :d])
        mu1 = Gaussian(mean[d:], cov[d:, d:])
    except (InvalidArgumentError, NonFiniteDataError) as err:
        raise InvalidCouplingError(str(err)) from err
    return CouplingSpec("gaussian_joint", mu0, mu1, joint=joint)


# ---------------------------------------------------------------------------
# process spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """Recipe for an interpolant process: a coefficient family, one of
    ``COEFFICIENTS``, plus a coupling of the endpoints in ``dim`` dimensions."""

    coefficients: str
    coupling: CouplingSpec
    dim: int

    def __post_init__(self):
        _check_family(self.coefficients)
        if self.dim != self.coupling.dim:
            raise InvalidArgumentError(
                f"spec dim {self.dim} does not match coupling dim {self.coupling.dim}"
            )


# ---------------------------------------------------------------------------
# time nodes
# ---------------------------------------------------------------------------

def time_nodes(steps: int) -> np.ndarray:
    """The ``steps + 1`` uniform time nodes on [0, 1], read-only: every time
    grid of the laboratory is its step count."""
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise InvalidArgumentError(f"steps must be a positive integer, not {steps}")
    return _readonly(np.linspace(0.0, 1.0, int(steps) + 1))


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
        x0, x1 = np.split(coupling.joint.draw(rng, rows), 2, axis=1)
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
    ``spec`` is a latent process.

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
    coupling, latent = spec.coupling, spec.coefficients == "latent"
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

    a, ad, add, b, bd, bdd, g, gd, gdd = coefficient_values(spec.coefficients, tk)
    x0 = endpoints.x0[:, None, :]
    x1 = endpoints.x1[:, None, :]
    coef = lambda c: c[None, :, None]
    pos = coef(a) * x0 + coef(b) * x1
    vel = coef(ad) * x0 + coef(bd) * x1
    acc = coef(add) * x0 + coef(bdd) * x1
    if spec.coefficients == "latent":
        if endpoints.z is None:
            raise InvalidArgumentError("spec has a latent term but endpoints carry no z")
        zz = endpoints.z[:, None, :]
        pos = pos + coef(g) * zz
        with np.errstate(invalid="ignore"):
            vel = vel + coef(gd) * zz
            acc = acc + coef(gdd) * zz
    if scalar:
        return pos[:, 0, :], vel[:, 0, :], acc[:, 0, :]
    return pos, vel, acc


# ---------------------------------------------------------------------------
# flat binary persistence
# ---------------------------------------------------------------------------

ENSEMBLE_MAGIC = b"SFLW1"
# Bytes of positions, velocities and accelerations the ensemble writer slices
# at once; slice_state's temporaries add at most two thirds of that again.
_ENSEMBLE_BLOCK_BYTES = 1 << 20


def save_ensemble(spec: ProcessSpec, path, endpoints: EndpointArrays, steps: int) -> None:
    """Write ``slice_state(spec, endpoints, time_nodes(steps))`` in the flat
    binary format: magic, N/K/d as little-endian u64 (K = steps + 1), then
    row-major float64 positions, velocities, accelerations, each (N, K, d).
    The rows are sliced a block of about ``_ENSEMBLE_BLOCK_BYTES`` at a
    time, each part written at its offset; slice_state is elementwise per
    row, so the bytes are those of the whole grid's slice, which is never
    held."""
    nodes = time_nodes(steps)
    n, k, d = endpoints.n, nodes.size, spec.dim
    rows, part = max(1, _ENSEMBLE_BLOCK_BYTES // (24 * k * d)), 8 * n * k * d
    with open(path, "wb") as fh:
        fh.write(ENSEMBLE_MAGIC + struct.pack("<QQQ", n, k, d))
        for lo in range(0, n, rows):
            cut = slice(lo, lo + rows)
            z = None if endpoints.z is None else endpoints.z[cut]
            block = EndpointArrays(endpoints.x0[cut], endpoints.x1[cut], z, endpoints.seed)
            for i, arr in enumerate(slice_state(spec, block, nodes)):
                fh.seek(len(ENSEMBLE_MAGIC) + 24 + i * part + 8 * lo * k * d)
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
            del arr  # freed before the next block is sliced


def load_ensemble(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the ``(positions, velocities, accelerations)`` triple written by
    :func:`save_ensemble`; K, the second axis, is the step count plus one.
    The file's size must be the one its header implies."""
    with open(path, "rb") as fh:
        magic = fh.read(len(ENSEMBLE_MAGIC))
        if magic != ENSEMBLE_MAGIC:
            raise InvalidArgumentError(f"bad magic {magic!r}; not an ensemble file")
        header = fh.read(24)
        if len(header) != 24:
            raise InvalidArgumentError("ensemble header is truncated")
        n, k, d = struct.unpack("<QQQ", header)
        size = os.fstat(fh.fileno()).st_size
        if size != len(ENSEMBLE_MAGIC) + 24 + 3 * 8 * n * k * d:
            raise InvalidArgumentError(
                f"ensemble payload of {size} bytes does not match the header's "
                f"N={n}, K={k}, d={d}"
            )
        return tuple(
            np.fromfile(fh, "<f8", n * k * d).reshape(n, k, d).astype(float, copy=False)
            for _ in range(3)
        )


def aux_rng(seed: int, tag: int) -> np.random.Generator:
    """Deterministic auxiliary stream (controls, subsampling, flow start
    points) keyed by ``(seed, 2^62 + tag)``; disjoint from the endpoint block
    streams, whose spawn keys pad the seed to the full entropy pool."""
    entropy = int(seed) % (2**63)  # seeds from 2^63 up fold into [0, 2^63)
    return np.random.default_rng((entropy, _AUX_BASE + int(tag)))
