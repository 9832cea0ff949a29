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


def make_spec(alpha_beta: str, coupling: core.CouplingSpec, dim: int = 1, latent: bool = False):
    if alpha_beta == "affine":
        a, b = core.affine_alpha(), core.affine_beta()
    else:
        a, b = core.trig_alpha(), core.trig_beta()
    g = core.bridge_gamma() if latent else None
    return core.ProcessSpec(a, b, coupling, dim, g)


@pytest.fixture(scope="session")
def affine_indep_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return make_spec("affine", cpl)


@pytest.fixture(scope="session")
def affine_det2x_spec():
    """T(x) = 2x between N(0,1) and N(0,4)."""
    amap = core.AffineMap(np.array([[2.0]]), np.array([0.0]))
    cpl = core.CouplingSpec("deterministic_map", gauss1(), gauss1(var=4.0), map=amap)
    return make_spec("affine", cpl)


@pytest.fixture(scope="session")
def trig_indep_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return make_spec("trig", cpl)


@pytest.fixture(scope="session")
def trig_det_identity_spec():
    """Y = X through the identity deterministic map."""
    amap = core.AffineMap(np.eye(1), np.zeros(1))
    cpl = core.CouplingSpec("deterministic_map", gauss1(), gauss1(), map=amap)
    return make_spec("trig", cpl)


@pytest.fixture(scope="session")
def latent_spec():
    cpl = core.CouplingSpec("independent", gauss1(), gauss1())
    return make_spec("affine", cpl, latent=True)


@pytest.fixture(scope="session")
def affine_ot_spec():
    """OT-map coupling N(0,1) -> N(2,4): T(x) = 2x + 2."""
    amap = core.AffineMap(np.array([[2.0]]), np.array([2.0]))
    cpl = core.CouplingSpec(
        "deterministic_map", gauss1(), core.Gaussian(np.array([2.0]), np.array([[4.0]])), map=amap
    )
    return make_spec("affine", cpl)


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
    return gaussian.fields_on_grid(gaussian.from_process_spec(spec), t, grid, time_derivatives=True)


def head(endpoints: core.EndpointArrays, n: int) -> core.EndpointArrays:
    """First-n view; valid because a smaller draw is a prefix of a larger one."""
    z = None if endpoints.z is None else endpoints.z[:n]
    return core.EndpointArrays(endpoints.x0[:n], endpoints.x1[:n], z, endpoints.seed)
