"""Shared specs and expensive session-scoped ensembles.

The four canonical processes used throughout:

* affine_det:   X_t = (1-t) X + t (2X),  X ~ N(0,1)        (deterministic, straight)
* affine_indep: X_t = (1-t) X + t Y,     X, Y ~ N(0,1) indep (curved)
* trig_indep:   X_t = cos(pi t/2) X + sin(pi t/2) Y, indep   (straight with a != 0)
* trig_det:     X_t = (cos + sin)(pi t/2) X, Y = X           (balance law fails)
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from straightflow import core, gaussian

# Property tests draw the same examples on every run, keep no example database
# and take no per-example deadline (timings vary on shared hosts); hypothesis's
# cache of source constants goes to the temp directory, not the checkout.
settings.register_profile("straightflow", derandomize=True, deadline=None, database=None)
settings.load_profile("straightflow")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "straightflow-hypothesis")
)


def gauss1(mean=0.0, var=1.0):
    return core.Gaussian(np.array([mean]), np.array([[var]]))


@pytest.fixture(scope="session")
def affine_indep_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return core.ProcessSpec("affine", cpl, 1)


@pytest.fixture(scope="session")
def affine_det2x_spec():
    """T(x) = 2x between N(0,1) and N(0,4)."""
    amap = core.AffineMap(np.array([[2.0]]), np.array([0.0]))
    cpl = core.CouplingSpec("deterministic_map", gauss1(), gauss1(var=4.0), map=amap)
    return core.ProcessSpec("affine", cpl, 1)


@pytest.fixture(scope="session")
def trig_indep_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return core.ProcessSpec("trig", cpl, 1)


@pytest.fixture(scope="session")
def trig_det_identity_spec():
    """Y = X through the identity deterministic map."""
    amap = core.AffineMap(np.eye(1), np.zeros(1))
    cpl = core.CouplingSpec("deterministic_map", gauss1(), gauss1(), map=amap)
    return core.ProcessSpec("trig", cpl, 1)


@pytest.fixture(scope="session")
def latent_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return core.ProcessSpec("latent", cpl, 1)


@pytest.fixture(scope="session")
def affine_ot_spec():
    """OT-map coupling N(0,1) -> N(2,4): T(x) = 2x + 2."""
    amap = core.AffineMap(np.array([[2.0]]), np.array([2.0]))
    cpl = core.CouplingSpec(
        "deterministic_map", gauss1(), core.Gaussian(np.array([2.0]), np.array([[4.0]])), map=amap
    )
    return core.ProcessSpec("affine", cpl, 1)


# 2e5 endpoint draws; tests slice them with core.slice_state at t = 0 or 1/2
@pytest.fixture(scope="session")
def ep_affine_indep_200k(affine_indep_spec):
    return core.sample_endpoints(affine_indep_spec, 200_000, seed=11)


@pytest.fixture(scope="session")
def ep_trig_indep_200k(trig_indep_spec):
    return core.sample_endpoints(trig_indep_spec, 200_000, seed=12)


def oracle_fields_dt(spec, t, grid):
    """Oracle fields of the process ``spec`` at time t on the grid, with
    their exact time derivatives (``dt_rho``, ``dt_rho_v``, ``dt_v``)."""
    return gaussian.fields_on_grid(spec, t, grid, time_derivatives=True)


def head(endpoints: core.EndpointArrays, n: int) -> core.EndpointArrays:
    """First-n view; valid because a smaller draw is a prefix of a larger one."""
    z = None if endpoints.z is None else endpoints.z[:n]
    return core.EndpointArrays(endpoints.x0[:n], endpoints.x1[:n], z, endpoints.seed)


# ---------------------------------------------------------------------------
# energy distance, the marginal transport check of acceptance criterion 8
# ---------------------------------------------------------------------------

def _mean_cross_1d(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(a)
    b = np.sort(b)
    prefix = np.concatenate([[0.0], np.cumsum(b)])
    k = np.searchsorted(b, a, side="right")
    total = np.sum(a * (2 * k - b.size) - 2 * prefix[k] + prefix[-1])
    return float(total / (a.size * b.size))


def _mean_within_1d(a: np.ndarray) -> float:
    a = np.sort(a)
    n = a.size
    j = np.arange(n)
    return float(2.0 * np.sum(a * (2 * j - (n - 1))) / (n * n))


def _mean_cross_nd(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    step = max(1, (1 << 22) // max(b.shape[0], 1))
    for i0 in range(0, a.shape[0], step):
        chunk = a[i0 : i0 + step]
        d2 = np.sum((chunk[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        total += float(np.sum(np.sqrt(d2)))
    return total / (a.shape[0] * b.shape[0])


def energy_distance(sample_a, sample_b) -> float:
    """V-statistic energy distance 2 E|a-b| - E|a-a'| - E|b-b'|.

    Exact O(n log n) path in one dimension, chunked pairwise otherwise.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.size == 0 or b.size == 0:
        raise ValueError("energy distance needs nonempty samples")
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share a dimension")
    if a.shape[1] == 1:
        av, bv = a[:, 0], b[:, 0]
        return 2.0 * _mean_cross_1d(av, bv) - _mean_within_1d(av) - _mean_within_1d(bv)
    return (
        2.0 * _mean_cross_nd(a, b) - _mean_cross_nd(a, a) - _mean_cross_nd(b, b)
    )
