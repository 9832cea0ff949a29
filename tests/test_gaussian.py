import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightflow import calculus, core, flow, gaussian
from straightflow.errors import (
    CapabilityError,
    DegenerateMarginalError,
    InvalidArgumentError,
)

from conftest import gauss1

PI2_4 = np.pi**2 / 4


def fields_at(spec, t, x):
    """rho, v, a, Sigma, Pi at one point: row 0 of the batch view."""
    rho, V, A, Sigma, Pi = gaussian.conditional_fields_batch(spec, t, np.atleast_2d(x))
    return rho[0], V[0], A[0], Sigma[0], Pi


def material_at(spec, t, x):
    """D_t v at the point x from the grid view: the oracle's v and exact d_t v
    on a three-node grid centred on x, through calculus.material_derivative."""
    grid = calculus.make_spatial_grid([(x - 0.5, x + 0.5)], 3)
    f = gaussian.fields_on_grid(spec, t, grid, time_derivatives=True)
    return calculus.material_derivative(grid, f["v"], f["dt_v"])[1]


def affine_independent(m0, S0, m1, S1):
    """The affine process between independent N(m0, S0) and N(m1, S1)."""
    cpl = core.CouplingSpec("independent", core.Gaussian(m0, S0), core.Gaussian(m1, S1))
    return core.ProcessSpec("affine", cpl, cpl.dim)


class TestMarginalMoments:
    def test_affine_independent_midpoint(self, affine_indep_spec):
        mom = gaussian.marginal_moments(affine_indep_spec, 0.5)
        assert mom.mean == pytest.approx(0.0)
        assert mom.cov[0, 0] == pytest.approx(0.5)

    def test_trig_independent_unit_variance(self, trig_indep_spec):
        for t in (0.0, 0.21, 0.5, 0.87, 1.0):
            mom = gaussian.marginal_moments(trig_indep_spec, t)
            assert mom.cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_condition(self):
        spec = affine_independent(np.array([1.5]), np.array([[0.7]]), np.array([-2.0]),
                                  np.array([[3.0]]))
        mom = gaussian.marginal_moments(spec, 0.0)
        assert mom.mean[0] == pytest.approx(1.5)
        assert mom.cov[0, 0] == pytest.approx(0.7)

    def test_degenerate_flagged(self):
        spec = affine_independent(np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.eye(1))
        assert gaussian.marginal_moments(spec, 0.0).degenerate
        assert not gaussian.marginal_moments(spec, 0.5).degenerate


class TestConditionalFields:
    def test_affine_independent_t0(self, affine_indep_spec):
        _, v, a, _, Pi = fields_at(affine_indep_spec, 0.0, np.array([0.7]))
        assert v[0] == pytest.approx(-0.7, abs=1e-12)
        assert Pi[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert a[0] == pytest.approx(0.0, abs=1e-12)

    def test_affine_independent_midpoint(self, affine_indep_spec):
        x = np.array([0.3])
        rho, v, _, _, Pi = fields_at(affine_indep_spec, 0.5, x)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert Pi[0, 0] == pytest.approx(2.0, abs=1e-12)
        expected_rho = np.exp(-x[0] ** 2 / 1.0) / np.sqrt(2 * np.pi * 0.5)
        assert rho == pytest.approx(expected_rho, rel=1e-12)

    def test_trig_independent(self, trig_indep_spec):
        for t in (0.15, 0.5, 0.8):
            _, v, a, _, Pi = fields_at(trig_indep_spec, t, np.array([1.2]))
            assert v[0] == pytest.approx(0.0, abs=1e-12)
            assert a[0] == pytest.approx(-PI2_4 * 1.2, abs=1e-10)
            assert Pi[0, 0] == pytest.approx(PI2_4, abs=1e-10)

    def test_deterministic_scaling(self):
        # T(x) = 2x via the joint-Gaussian route: v = x/(1+t), Pi = 0
        cov = np.array([[1.0, 2.0], [2.0, 4.0]])
        cpl = core.gaussian_joint_coupling(np.zeros(2), cov)
        spec = core.ProcessSpec("affine", cpl, 1)
        for t in (0.2, 0.6):
            _, v, _, _, Pi = fields_at(spec, t, np.array([0.9]))
            assert v[0] == pytest.approx(0.9 / (1 + t), rel=1e-10)
            assert Pi[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_pi_independent_of_x(self, affine_indep_spec):
        Pi1 = fields_at(affine_indep_spec, 0.3, np.array([-2.0]))[4]
        Pi2 = fields_at(affine_indep_spec, 0.3, np.array([1.4]))[4]
        assert np.allclose(Pi1, Pi2, atol=0.0)

    def test_sigma_decomposition(self, affine_indep_spec):
        _, v, _, Sigma, Pi = fields_at(affine_indep_spec, 0.3, np.array([0.8]))
        assert np.allclose(Sigma, Pi + np.outer(v, v))

    def test_degenerate_marginal_raises(self):
        spec = affine_independent(np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.eye(1))
        with pytest.raises(DegenerateMarginalError):
            fields_at(spec, 0.0, np.zeros(1))

    def test_velocity_views_refuse_the_same_degenerate_marginal(self):
        spec = affine_independent(np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.eye(1))
        oracle = flow.analytic_velocity_oracle(spec)
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(DegenerateMarginalError):
                gaussian.velocity_at(spec, 0.0, np.zeros(1))
            with pytest.raises(DegenerateMarginalError):
                oracle(0.0, np.zeros(1))
        assert oracle(0.5, np.zeros(1))[0] == gaussian.velocity_at(spec, 0.5, np.zeros(1))[0]

    def test_velocity_views_equal_the_full_model_bitwise(self):
        joint = core.gaussian_joint_coupling(
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([[1.0, 0.2, 0.6, 0.0], [0.2, 1.0, 0.0, 0.5],
                      [0.6, 0.0, 1.0, 0.1], [0.0, 0.5, 0.1, 2.0]]),
        )
        spec = core.ProcessSpec("latent", joint, 2)
        X = np.random.default_rng(6).standard_normal((7, 2))
        oracle = flow.analytic_velocity_oracle(spec)
        # revisited times come from the oracle's memo
        for t in (0.3, 0.45, 0.3, 0.6, 0.7, 0.8, 0.9, 0.3):
            V = gaussian.conditional_fields_batch(spec, t, X)[1]
            assert np.array_equal(gaussian.velocity_at(spec, t, X), V)
            assert np.array_equal(oracle(t, X), V)

    def test_batch_matches_pointwise(self, affine_indep_spec):
        X = np.array([[-1.0], [0.0], [2.5]])
        rho, V, A, Sigma, Pi = gaussian.conditional_fields_batch(affine_indep_spec, 0.3, X)
        for i, x in enumerate(X):
            rho_i, v_i, a_i, Sigma_i, Pi_i = fields_at(affine_indep_spec, 0.3, x)
            assert rho[i] == pytest.approx(rho_i, rel=1e-12)
            assert np.allclose(V[i], v_i)
            assert np.allclose(A[i], a_i)
            assert np.allclose(Sigma[i], Sigma_i)
        assert np.allclose(Pi, Pi_i)


class TestOtMap:
    def test_identity_transport(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        m0, m1 = np.array([1.0, -1.0]), np.array([0.5, 4.0])
        amap = gaussian.gaussian_ot_map(m0, S, m1, S)
        assert np.allclose(amap.A, np.eye(2), atol=1e-10)
        assert np.allclose(amap.b, m1 - m0, atol=1e-10)

    def test_scalar_scaling(self):
        amap = gaussian.gaussian_ot_map(np.zeros(1), np.eye(1), np.zeros(1), np.array([[4.0]]))
        assert amap.A[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert amap.b[0] == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal(self):
        amap = gaussian.gaussian_ot_map(
            np.zeros(2), np.eye(2), np.zeros(2), np.diag([4.0, 9.0])
        )
        assert np.allclose(amap.A, np.diag([2.0, 3.0]), atol=1e-10)

    def test_map_is_spd(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((2, 2))
        S1 = M @ M.T + 0.5 * np.eye(2)
        amap = gaussian.gaussian_ot_map(np.zeros(2), np.eye(2), np.zeros(2), S1)
        assert np.allclose(amap.A, amap.A.T)
        assert np.linalg.eigvalsh(amap.A).min() > 0

    def test_pushforward_covariance(self):
        rng = np.random.default_rng(21)
        n = 10_000
        S0 = np.array([[1.0, 0.4], [0.4, 2.0]])
        S1 = np.array([[3.0, -0.5], [-0.5, 0.8]])
        amap = gaussian.gaussian_ot_map(np.zeros(2), S0, np.ones(2), S1)
        x = rng.multivariate_normal(np.zeros(2), S0, size=n)
        y = amap(x)
        emp = np.cov(y, rowvar=False, ddof=1)
        se = np.sqrt(2.0 / n) * np.sqrt(np.outer(np.diag(S1), np.diag(S1))) * 2
        assert np.all(np.abs(emp - S1) <= 4 * se + 4 * np.sqrt(2.0 / n))
        assert np.allclose(y.mean(axis=0), np.ones(2), atol=4 * np.sqrt(3.0 / n) + 0.05)

    @settings(max_examples=60)
    @given(
        eigs0=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        eigs1=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pushforward_is_exact_for_random_spd_pairs(self, eigs0, eigs1, d, seed):
        rng = np.random.default_rng(seed)

        def spd(eigs):
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            S = (Q * np.array(eigs[:d])) @ Q.T
            return 0.5 * (S + S.T)

        S0, S1 = spd(eigs0), spd(eigs1)
        m0, m1 = rng.normal(size=d), rng.normal(size=d)
        amap = gaussian.gaussian_ot_map(m0, S0, m1, S1)
        A = amap.A
        assert np.array_equal(A, A.T)
        assert np.linalg.eigvalsh(A).min() > 0
        assert np.abs(A @ S0 @ A.T - S1).max() <= 1e-11 * np.abs(S1).max()
        assert np.abs(amap(m0) - m1).max() <= 1e-12 * (1.0 + np.abs(A).max() * np.abs(m0).max())

    def test_singular_source_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gaussian.gaussian_ot_map(np.zeros(1), np.zeros((1, 1)), np.zeros(1), np.eye(1))


class TestMaterialDerivative:
    def test_deterministic_scaling_vanishes(self):
        cov = np.array([[1.0, 2.0], [2.0, 4.0]])
        cpl = core.gaussian_joint_coupling(np.zeros(2), cov)
        spec = core.ProcessSpec("affine", cpl, 1)
        for t in (0.2, 0.5, 0.8):
            assert abs(material_at(spec, t, 1.3)[0]) <= 1e-8

    def test_affine_independent_midpoint(self, affine_indep_spec):
        for x in (-1.5, 0.4, 2.0):
            assert material_at(affine_indep_spec, 0.5, x)[0] == pytest.approx(4.0 * x, abs=1e-6)

    def test_trig_independent_vanishes(self, trig_indep_spec):
        for t in (0.1, 0.5, 0.9):
            assert abs(material_at(trig_indep_spec, t, 0.7)[0]) <= 1e-8


class TestFromProcessSpec:
    def test_empirical_coupling_rejected(self):
        cpl = core.CouplingSpec(
            "deterministic_map", core.Empirical([[0.0], [1.0]]), core.Empirical([[0.0], [2.0]])
        )
        with pytest.raises(CapabilityError):
            gaussian.marginal_moments(core.ProcessSpec("affine", cpl, 1), 0.5)

    def test_mixture_rejected(self):
        mix = core.GaussianMixture(
            np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]), np.array([[[0.2]], [[0.2]]])
        )
        cpl = core.CouplingSpec("independent", mix, gauss1())
        with pytest.raises(CapabilityError):
            gaussian.marginal_moments(core.ProcessSpec("affine", cpl, 1), 0.5)

    @pytest.mark.parametrize("t, inside", [(0.0, 1e-9), (1.0, 1.0 - 1e-9)])
    def test_latent_velocity_at_the_ends_is_its_limit(self, latent_spec, t, inside):
        # g' is infinite where the bridge g = sqrt(t(1 - t)) is 0, but g g' is not
        x = np.linspace(-3.0, 3.0, 7)[:, None]
        v = gaussian.velocity_at(latent_spec, t, x)
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(v, gaussian.velocity_at(latent_spec, inside, x), rtol=0,
                                   atol=1e-7)

    def test_latent_marginal_includes_bridge_variance(self, latent_spec):
        mom = gaussian.marginal_moments(latent_spec, 0.5)
        # (1-t)^2 + t^2 + t(1-t) at t = 1/2
        assert mom.cov[0, 0] == pytest.approx(0.75, abs=1e-12)


@st.composite
def gaussian_processes(draw):
    """A jointly Gaussian process in d = 1..3: an independent,
    deterministic-map or gaussian_joint coupling of well-conditioned
    covariances, under affine, trig or latent coefficients."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["independent", "deterministic_map", "gaussian_joint"]))
    coefficients = draw(st.sampled_from(["affine", "trig", "latent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spd(k):
        M = rng.standard_normal((k, k))
        return M @ M.T / k + 0.3 * np.eye(k)

    if kind == "gaussian_joint":
        cpl = core.gaussian_joint_coupling(rng.standard_normal(2 * d), spd(2 * d))
    else:
        mu0 = core.Gaussian(rng.standard_normal(d), spd(d))
        amap = core.AffineMap(spd(d), rng.standard_normal(d))  # positive definite A
        mu1 = core.Gaussian(amap.A @ mu0.mean + amap.b, amap.A @ mu0.cov @ amap.A.T)
        if kind == "independent":
            cpl = core.CouplingSpec(kind, mu0, core.Gaussian(mu1.mean, spd(d)))
        else:
            cpl = core.CouplingSpec(kind, mu0, mu1, map=amap)
    return core.ProcessSpec(coefficients, cpl, d)


class TestTimeDerivatives:
    @settings(max_examples=60)
    @given(g=gaussian_processes(), t=st.floats(0.02, 0.98), seed=st.integers(0, 2**16))
    def test_exact_match_central_differences(self, g, t, seed):
        h = 1e-5
        mom = gaussian.marginal_moments(g, t)
        z = np.random.default_rng(seed).standard_normal((20, g.dim))
        X = mom.mean + 2.0 * z @ np.linalg.cholesky(mom.cov).T
        rho, V, *_, dt_rho, dt_rho_v, dt_v = gaussian.conditional_fields_batch(g, t, X, True)
        lo, hi = (gaussian.conditional_fields_batch(g, tt, X) for tt in (t - h, t + h))
        for field, exact, f_lo, f_hi in (
            (rho, dt_rho, lo[0], hi[0]),
            (rho[:, None] * V, dt_rho_v, lo[0][:, None] * lo[1], hi[0][:, None] * hi[1]),
            (V, dt_v, lo[1], hi[1]),
        ):
            diff = (f_hi - f_lo) / (2 * h)
            # the difference's rounding is about 1e-16 |field| / h
            scale = np.abs(diff).max() + np.abs(field).max()
            assert np.abs(exact - diff).max() <= 1e-7 * scale

    def test_grid_view_carries_the_batch_derivatives(self, trig_indep_spec):
        grid = calculus.make_spatial_grid(gaussian.oracle_box(trig_indep_spec, 0.3), 7)
        f = gaussian.fields_on_grid(trig_indep_spec, 0.3, grid, time_derivatives=True)
        plain = gaussian.fields_on_grid(trig_indep_spec, 0.3, grid)
        batch = gaussian.conditional_fields_batch(trig_indep_spec, 0.3, grid.points(), True)
        for name in plain:
            assert np.array_equal(f[name], plain[name])
        for name, values in zip(("dt_rho", "dt_rho_v", "dt_v"), batch[5:]):
            assert np.array_equal(f[name].reshape(values.shape), values)
