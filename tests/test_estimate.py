from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightflow import calculus, core, estimate
from straightflow.errors import (
    DegenerateDataError,
    InconsistentMomentsError,
    NonFiniteDataError,
)

from conftest import head

PI2_4 = np.pi**2 / 4
CFG = estimate.KernelConfig()


def slice_arrays(spec, endpoints, t, n=None):
    """(X, V, A) of the first ``n`` paths (all when None) at time ``t``."""
    return core.slice_state(spec, endpoints if n is None else head(endpoints, n), t)


def kde(X, x, h):
    """Gaussian-kernel density at x from nw_regress's effective n."""
    n, d = X.shape
    _, eff = estimate.nw_regress(X, np.zeros((n, 1)), x[None, :], h)
    return eff[0] / (n * (2 * np.pi * h * h) ** (d / 2))


def fields_at(X, x, V=None, A=None, cfg=CFG):
    """fields_on_grid values at the centre node of the 3^d grid around x, and
    whether that node stays admissible (its values finite)."""
    x = np.asarray(x, dtype=float)
    V = np.zeros_like(X) if V is None else V
    A = np.zeros_like(X) if A is None else A
    grid = calculus.make_spatial_grid([(c - 1.0, c + 1.0) for c in x], 3)
    fields = estimate.fields_on_grid(X, V, A, grid, cfg)
    centre = (1,) * x.size
    return {name: f[centre] for name, f in fields.items()}, bool(np.isfinite(fields["rho"][centre]))


class TestSilverman:
    def test_formula_and_example_value(self, affine_indep_spec, ep_affine_indep_200k):
        X, _, _ = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.0, 10_000)
        h = estimate.silverman_bandwidth_from(X)
        sigma = np.std(X[:, 0], ddof=1)
        assert h == pytest.approx(sigma * (4.0 / (3 * 10_000)) ** 0.2, rel=1e-12)
        assert h == pytest.approx(0.168, abs=0.004)

    def test_linear_in_sigma(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((500, 1))
        h1 = estimate.silverman_bandwidth_from(base)
        h2 = estimate.silverman_bandwidth_from(2.0 * base)
        assert h2 == pytest.approx(2.0 * h1, rel=1e-12)

    def test_sample_size_exponent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4000, 1))
        h1 = estimate.silverman_bandwidth_from(x[:1000])
        h4 = estimate.silverman_bandwidth_from(x)
        sig1 = np.std(x[:1000], ddof=1)
        sig4 = np.std(x, ddof=1)
        assert (h4 / sig4) / (h1 / sig1) == pytest.approx(4.0 ** (-1 / 5), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            estimate.silverman_bandwidth_from(np.ones((50, 1)))


class TestKde:
    def test_single_kernel_value(self):
        X = np.zeros((2, 1))  # two samples at the origin
        cfg = estimate.KernelConfig(bandwidth=0.5, density_floor=0.0)
        vals, _ = fields_at(X, np.zeros(1), cfg=cfg)
        assert vals["rho"] == pytest.approx((2 * np.pi * 0.25) ** -0.5, rel=1e-12)

    def test_matches_oracle_density(self, affine_indep_spec, ep_affine_indep_200k):
        X, _, _ = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, 100_000)
        vals, _ = fields_at(X, np.zeros(1))
        assert vals["rho"] == pytest.approx(0.5642, rel=0.05)

    def test_far_query_negligible(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 1))
        assert kde(X, np.array([50.0]), 0.1) < 1e-10

    def test_ten_bandwidths_out_is_negligible(self):
        X = np.zeros((5, 1))
        h = 0.3
        assert kde(X, np.array([10.0 * h]), h) < 1e-10


class TestNwConditional:
    def test_constant_velocity_recovered_exactly(self):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((300, 2))
        vel = np.tile([1.5, -2.0], (300, 1))
        h = estimate.silverman_bandwidth_from(pos)
        vals, _ = estimate.nw_regress(pos, vel, np.array([[0.2, -0.1]]), h)
        assert np.allclose(vals[0], [1.5, -2.0], atol=1e-12)

    def test_matches_oracle_velocity(self, affine_indep_spec, ep_affine_indep_200k):
        X, V, _ = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.0)
        vals, _ = estimate.nw_regress(X, V, np.array([[1.0]]), estimate.silverman_bandwidth_from(X))
        assert vals[0, 0] == pytest.approx(-1.0, abs=0.05)

    def test_affine_acceleration_exact_zero(self, affine_indep_spec, ep_affine_indep_200k):
        X, _, A = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, 5_000)
        vals, _ = estimate.nw_regress(X, A, np.array([[0.3]]), estimate.silverman_bandwidth_from(X))
        assert vals[0, 0] == 0.0

    def test_low_density_refusal(self, affine_indep_spec, ep_affine_indep_200k):
        X, V, A = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.0, 2_000)
        vals, admissible = fields_at(X, np.array([100.0]), V, A)
        assert vals["effective_n"] < CFG.density_floor
        assert not admissible and np.isnan(vals["v"][0])

    def test_non_finite_slice_rejected(self, latent_spec):
        # the bridge coefficient has infinite derivative at the endpoints
        X, V, A = slice_arrays(latent_spec, core.sample_endpoints(latent_spec, 100, seed=8), 0.0)
        with pytest.raises(NonFiniteDataError):
            fields_at(X, np.zeros(1), V, A)


class TestSecondMoment:
    def test_constant_gives_outer_product(self):
        rng = np.random.default_rng(4)
        pos = rng.standard_normal((300, 2))
        vel = np.tile([1.0, 2.0], (300, 1))
        vals, admissible = fields_at(pos, np.zeros(2), vel)
        assert admissible
        assert np.allclose(vals["Sigma"], np.outer([1.0, 2.0], [1.0, 2.0]), atol=1e-12)

    def test_affine_independent_midpoint(self, affine_indep_spec, ep_affine_indep_200k):
        X, V, A = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, 100_000)
        vals, _ = fields_at(X, np.zeros(1), V, A)
        assert vals["Sigma"][0, 0] == pytest.approx(2.0, rel=0.05)

    def test_trig_independent(self, trig_indep_spec, ep_trig_indep_200k):
        X, V, A = slice_arrays(trig_indep_spec, ep_trig_indep_200k, 0.5, 100_000)
        vals, _ = fields_at(X, np.array([0.5]), V, A)
        assert vals["Sigma"][0, 0] == pytest.approx(PI2_4, rel=0.05)


class TestReynoldsTensor:
    def test_deterministic_slice_vanishes(self):
        c = np.array([1.0, -2.0])
        pi = estimate.reynolds_tensor(np.outer(c, c), c)
        assert np.allclose(pi, 0.0, atol=1e-12)

    def test_scalar_case(self):
        pi = estimate.reynolds_tensor(np.array([[2.0]]), np.array([0.0]))
        assert pi[0, 0] == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        pi = estimate.reynolds_tensor(np.diag([2.0, 3.0]), np.array([1.0, 1.0]))
        assert np.allclose(pi, [[1.0, -1.0], [-1.0, 2.0]])

    def test_inconsistent_moments_rejected(self):
        with pytest.raises(InconsistentMomentsError):
            estimate.reynolds_tensor(np.array([[1.0]]), np.array([2.0]))

    def test_small_negative_clipped(self):
        sigma = np.outer([1.0, 1.0], [1.0, 1.0]) - 1e-10 * np.eye(2)
        pi = estimate.reynolds_tensor(sigma + np.outer([1.0, 1.0], [1.0, 1.0]) * 0, [1.0, 1.0])
        assert np.linalg.eigvalsh(pi).min() >= 0.0

    def test_batch_matches_each_matrix(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 3, 2))
        spread = rng.standard_normal((4, 3, 2, 2))
        sigma = v[..., :, None] * v[..., None, :] + spread @ np.swapaxes(spread, -1, -2)
        batch = estimate.reynolds_tensor(sigma, v)
        assert batch.shape == (4, 3, 2, 2)
        for idx in np.ndindex(4, 3):
            assert np.allclose(batch[idx], estimate.reynolds_tensor(sigma[idx], v[idx]), atol=1e-12)

    def test_inconsistent_member_of_batch_rejected(self):
        sigma = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(InconsistentMomentsError):
            estimate.reynolds_tensor(sigma, np.array([[0.0, 0.0], [2.0, 0.0]]))


def dense_reference(X, Y, points, h, V):
    """Every sample against every query, with the engine's cut: the exponent
    is the squared coordinate differences summed in axis order, times
    -1/(2 h^2), and a pair whose exponent is below -32 (beyond eight
    bandwidths) is dropped.  Returns the values, the effective n, the
    weighted means of s and s V (s = (x - X).V per pair), and their absolute
    tolerance: 1e-12 of the largest kept |s| and |s V| (the scale of the
    terms of those means), plus rounding of the two parts they are formed
    from, which cancel to s: 64 eps of the largest kept |t| and |t V| over
    t = (x - c).V and (X - c).V about the sample mean c."""
    diff = points[:, None, :] - X[None, :, :]
    d2 = diff[..., 0] ** 2
    for k in range(1, X.shape[1]):
        d2 = d2 + diff[..., k] ** 2
    exponent = d2 * (-1.0 / (2.0 * h * h))
    inside = exponent >= -32.0
    w = np.where(inside, np.exp(exponent), 0.0)
    sum_w = w.sum(axis=1)
    s = np.sum(diff * V[None, :, :], axis=-1)
    sv = np.concatenate([s[..., None], s[..., None] * V[None, :, :]], axis=-1)
    c = X.mean(axis=0)
    parts = [(points - c) @ V.T, np.broadcast_to(np.sum((X - c) * V, axis=1), s.shape)]
    kept_v = np.abs(V[np.nonzero(inside)[1]])

    def largest(*terms):
        kept = [np.abs(t[inside]) for t in terms]
        return max(max(t.max(), (t[:, None] * kept_v).max()) for t in kept)

    atol = 0.0
    if inside.any():
        atol = 1e-12 * largest(s) + 64 * np.finfo(float).eps * largest(*parts)
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.einsum("mn,mnk->mk", w, sv) / sum_w[:, None]
        return (w @ Y) / sum_w[:, None], sum_w, rates, atol


def with_velocities(X, Y, points, h, V):
    """The kernel means of the targets [V, Y, V (x) V] and the time-derivative
    moments, taken in one pass: the values of Y, the effective n and the
    means of s and s V."""
    means, eff, rates = estimate._kernel_means(X, V, Y, points, h, time_derivatives=True)
    return means[:, V.shape[1]:V.shape[1] + Y.shape[1]], eff, rates


def draw_problem(seed, n, m, d, decimals):
    """Samples (rounded to ``decimals`` to make ties on axis 0), targets,
    queries mixing sample points with points up to five scales out, and
    sample velocities."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    Y = rng.standard_normal((n, 3))
    far = 5.0 * rng.uniform(-1, 1, (m - m // 2, d))
    points = np.concatenate([X[rng.integers(0, n, m // 2)], far])
    V = rng.standard_normal((n, d))
    return X, Y, points, V


class TestKernelEngine:
    problems = dict(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        m=st.integers(1, 40),
        d=st.sampled_from([1, 2, 3]),
        decimals=st.sampled_from([None, 0, 1, 2]),
        h=st.floats(0.02, 2.0),
    )

    @settings(max_examples=60)
    @given(block_pairs=st.sampled_from([1, 7, estimate._BLOCK_PAIRS]), **problems)
    def test_equals_dense_reference(self, seed, n, m, d, decimals, h, block_pairs):
        X, Y, points, V = draw_problem(seed, n, m, d, decimals)
        with mock.patch.object(estimate, "_BLOCK_PAIRS", block_pairs):
            vals, eff = estimate.nw_regress(X, Y, points, h)
            _, _, rates = with_velocities(X, Y, points, h, V)
        ref_vals, ref_eff, ref_rates, rate_atol = dense_reference(X, Y, points, h, V)
        np.testing.assert_allclose(eff, ref_eff, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-12, atol=1e-12 * np.abs(Y).max())
        np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=rate_atol)

    @settings(max_examples=60)
    @given(
        geometry=st.fixed_dictionaries({
            "_BLOCK_PAIRS": st.sampled_from([1, 7, estimate._BLOCK_PAIRS, 1 << 40]),
            "_BLOCK_WIDTH": st.sampled_from([1e-6, estimate._BLOCK_WIDTH, 1e6]),
            "_CELL_WIDTH": st.sampled_from([1e-6, 0.1, estimate._CELL_WIDTH, 1e6]),
            "_GATHER_QUERIES": st.sampled_from([1, 2, estimate._GATHER_QUERIES, 1 << 40]),
        }),
        **problems,
    )
    def test_block_geometry_does_not_matter(self, seed, n, m, d, decimals, h, geometry):
        X, Y, points, V = draw_problem(seed, n, m, d, decimals)
        vals, eff, rates = with_velocities(X, Y, points, h, V)
        with mock.patch.multiple(estimate, **geometry):
            vals_g, eff_g, rates_g = with_velocities(X, Y, points, h, V)
        np.testing.assert_allclose(eff_g, eff, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vals_g, vals, rtol=1e-12, atol=1e-12 * np.abs(Y).max())
        rate_atol = dense_reference(X, Y, points, h, V)[3]
        np.testing.assert_allclose(rates_g, rates, rtol=1e-12, atol=rate_atol)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sample_beyond_the_window_on_one_axis_gets_no_weight(self, d):
        h = 0.5  # window radius 4
        # in the window on axis 0 but beyond it on the last axis, at weight
        # exp(-34) (relative 1.7e-15, which would show in effective n)
        beyond = np.zeros(d)
        beyond[0], beyond[-1] = 1.0, np.nextafter(4.0, np.inf)
        at_edge = np.zeros(d)
        at_edge[-1] = -4.0  # on the window's edge: kept
        # inside the box of half-width 4 on every axis, but 4.1 away, at
        # weight exp(-33.6): the cut is a disc, not a box
        corner = np.zeros(d)
        corner[0] = corner[-1] = 2.9
        X = np.stack([np.zeros(d), beyond, at_edge, corner])
        Y = np.array([[1.0], [100.0], [0.0], [100.0]])
        rng = np.random.default_rng(0)
        crowd = np.concatenate([np.zeros((1, d)), rng.uniform(-0.5, 0.5, (63, d))])
        for points in (np.zeros((1, d)), crowd):
            vals, eff = estimate.nw_regress(X, Y, points, h)
            edge_w = np.exp(-16.0 / (2 * h * h))
            assert eff[0] == 1.0 + edge_w
            assert vals[0, 0] == 1.0 / (1.0 + edge_w)

    def test_sample_beyond_the_window_gets_no_weight_in_a_1d_crowd(self):
        h = 0.5  # window radius 4
        X = np.array([[0.0], [np.nextafter(4.0, np.inf)], [-4.0]])  # beyond; on the edge
        Y = np.array([[1.0], [100.0], [0.0]])
        # 63 queries within half a bandwidth of the query at the origin, all
        # in one block, whose band holds the sample beyond that query's window
        half = np.random.default_rng(0).uniform(0.0, 0.25, 31)
        crowd = np.concatenate([[0.0], half, -half])[:, None]
        vals, eff = estimate.nw_regress(X, Y, crowd, h)
        edge_w = np.exp(-16.0 / (2 * h * h))
        assert eff[0] == 1.0 + edge_w
        assert vals[0, 0] == 1.0 / (1.0 + edge_w)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        m=st.integers(1, 40),
        decimals=st.sampled_from([None, 0, 1, 2]),
        h=st.floats(0.02, 2.0),
        offset=st.sampled_from([0.0, -1e5, 1e5]),
        crowd=st.integers(16, 48),
        block_width=st.sampled_from([estimate._BLOCK_WIDTH, 1e6]),
    )
    def test_crowded_1d_queries_equal_dense_reference(
        self, seed, n, m, decimals, h, offset, crowd, block_width
    ):
        X, Y, points, V = draw_problem(seed, n, m, 1, decimals)
        rng = np.random.default_rng(seed + 2)
        # crowds of queries half a bandwidth wide, each sharing blocks: one
        # about a sample, one about a query (it may lie far from every
        # sample), and one a bandwidth wide, 7.5 bandwidths beyond the last
        # sample, which weighs only samples near the cut
        crowds = [
            X[rng.integers(n)] + h * rng.uniform(-0.25, 0.25, (crowd, 1)),
            points[rng.integers(points.shape[0])] + h * rng.uniform(-0.25, 0.25, (crowd, 1)),
            X.max() + h * rng.uniform(7.0, 8.0, (crowd, 1)),
        ]
        X, points = X + offset, np.concatenate([points, *crowds]) + offset
        # at a _BLOCK_WIDTH of 1e6 one block holds every query
        with mock.patch.object(estimate, "_BLOCK_WIDTH", block_width):
            vals, eff, rates = with_velocities(X, Y, points, h, V)
        ref_vals, ref_eff, ref_rates, rate_atol = dense_reference(X, Y, points, h, V)
        np.testing.assert_allclose(eff, ref_eff, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-12, atol=1e-12 * np.abs(Y).max())
        np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=rate_atol)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_queries(self, d):
        vals, eff = estimate.nw_regress(np.ones((5, d)), np.ones((5, 3)), np.zeros((0, d)), 0.3)
        assert vals.shape == (0, 3) and eff.shape == (0,)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]), k=st.integers(1, 4))
    def test_few_queries_equal_the_same_queries_in_a_batch(self, seed, d, k):
        X, Y, points, _ = draw_problem(seed, 3000, 600, d, None)
        h = 0.5 * estimate.silverman_bandwidth_from(X)
        vals, eff = estimate.nw_regress(X, Y, points, h)
        pick = np.random.default_rng(seed).choice(points.shape[0], k, replace=False)
        vals_k, eff_k = estimate.nw_regress(X, Y, points[pick], h)
        np.testing.assert_allclose(eff_k, eff[pick], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vals_k, vals[pick], rtol=1e-12, atol=1e-12 * np.abs(Y).max())

    @settings(max_examples=40)
    @given(**problems)
    def test_sample_order_does_not_matter(self, seed, n, m, d, decimals, h):
        X, Y, points, V = draw_problem(seed, n, m, d, decimals)
        perm = np.random.default_rng(seed + 1).permutation(n)
        vals, eff, rates = with_velocities(X, Y, points, h, V)
        vals_p, eff_p, rates_p = with_velocities(X[perm], Y[perm], points, h, V[perm])
        np.testing.assert_allclose(eff_p, eff, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vals_p, vals, rtol=1e-12, atol=1e-12 * np.abs(Y).max())
        rate_atol = dense_reference(X, Y, points, h, V)[3]
        np.testing.assert_allclose(rates_p, rates, rtol=1e-12, atol=rate_atol)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]))
    def test_shift_invariant_far_from_origin(self, seed, d):
        rng = np.random.default_rng(seed)
        offset = 1e5
        X = offset + 0.01 * rng.standard_normal((20_000, d))
        Y = rng.standard_normal((20_000, 2))
        V = rng.standard_normal((20_000, d))
        points = X[:3]
        h = estimate.silverman_bandwidth_from(X)
        vals, eff, rates = with_velocities(X, Y, points, h, V)
        vals_0, eff_0, rates_0 = with_velocities(X - offset, Y, points - offset, h, V)
        np.testing.assert_allclose(eff, eff_0, rtol=1e-9)
        np.testing.assert_allclose(vals, vals_0, rtol=1e-9)
        np.testing.assert_allclose(rates, rates_0, rtol=1e-9)


class TestSliceEstimate:
    def test_consistency_of_parts(self, affine_indep_spec, ep_affine_indep_200k):
        X, V, A = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, 20_000)
        x = np.array([0.4])
        vals, _ = fields_at(X, x, V, A)
        v_hat, eff = estimate.nw_regress(X, V, x[None, :], estimate.silverman_bandwidth_from(X))
        assert np.allclose(vals["v"], v_hat[0])
        assert vals["effective_n"] == pytest.approx(eff[0])
        assert np.allclose(
            vals["Pi"], estimate.reynolds_tensor(vals["Sigma"], vals["v"]), atol=1e-12
        )


class TestDeterministicSignature:
    def test_trace_two_orders_below_shuffled_control(self, affine_det2x_spec):
        n = 50_000
        ens = core.sample_endpoints(affine_det2x_spec, n, seed=17)
        X, V, _ = slice_arrays(affine_det2x_spec, ens, 0.5)
        perm = core.aux_rng(17, 1).permutation(n)
        a_k, b_k = 0.5, 0.5
        x0, x1 = ens.x0, ens.x1
        Xc = a_k * x0 + b_k * x1[perm]
        Vc = x1[perm] - x0
        grid_pts = np.linspace(-1.5, 1.5, 9)[:, None]
        h = estimate.silverman_bandwidth_from(X)
        v_hat, _ = estimate.nw_regress(X, V, grid_pts, h)
        s_hat, _ = estimate.nw_regress(X, V**2, grid_pts, h)
        tr_det = np.max(s_hat[:, 0] - v_hat[:, 0] ** 2)
        hc = estimate.silverman_bandwidth_from(Xc)
        vc_hat, _ = estimate.nw_regress(Xc, Vc, grid_pts, hc)
        sc_hat, _ = estimate.nw_regress(Xc, Vc**2, grid_pts, hc)
        tr_ctl = np.min(sc_hat[:, 0] - vc_hat[:, 0] ** 2)
        assert tr_det <= 0.05 * tr_ctl


class TestOracleConsistency:
    def test_regression_rmse_shrinks_with_sample_size(
        self, affine_indep_spec, ep_affine_indep_200k
    ):
        # MC estimate of v converges on the analytic oracle, roughly n^(-1/2)
        from straightflow import gaussian

        pts = np.linspace(-1.2, 1.2, 9)[:, None]
        v_true = gaussian.velocity_at(affine_indep_spec, 0.5, pts)
        rmses = []
        for n in (1_000, 4_000, 16_000):
            X, V, _ = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, n)
            vhat, _ = estimate.nw_regress(X, V, pts, estimate.silverman_bandwidth_from(X))
            rmses.append(float(np.sqrt(np.mean((vhat - v_true) ** 2))))
        assert rmses[0] > rmses[1] > rmses[2]
        assert rmses[0] / rmses[2] >= 2.0  # between n^(-2/5) and n^(-1/2) over 16x


class TestGridFields:
    def test_masks_low_density_nodes(self, ep_affine_indep_200k, affine_indep_spec):
        X, V, A = slice_arrays(affine_indep_spec, ep_affine_indep_200k, 0.5, 30_000)
        grid = calculus.make_spatial_grid([(-8.0, 8.0)], 41)  # tails far outside data
        fields = estimate.fields_on_grid(X, V, A, grid, CFG)
        admissible = np.isfinite(fields["rho"])
        assert not np.all(admissible[1:-1])  # some interior node is refused
        assert np.isnan(fields["v"][0, 0])  # boundary/tail node refused
        center = 20
        assert admissible[center]
        assert abs(fields["v"][center, 0]) < 0.1  # v(0) = 0 at t = 1/2

    def test_node_without_kernel_weight_masked_at_zero_floor(self):
        X = np.zeros((5, 2))
        cfg = estimate.KernelConfig(bandwidth=0.1, density_floor=0.0)
        vals, admissible = fields_at(X, np.array([50.0, 0.0]), cfg=cfg)
        assert vals["effective_n"] == 0.0
        assert not admissible and np.isnan(vals["rho"])


def _spd(rng, d):
    root = rng.normal(size=(d, d))
    return root @ root.T + 0.1 * np.eye(d)


def _coupling(kind, d, rng):
    """A coupling of the given kind in d dimensions with random parameters."""
    mean0, cov0 = rng.normal(size=d), _spd(rng, d)
    if kind == "independent":
        means = rng.normal(scale=2.0, size=(2, d))
        covs = np.stack([_spd(rng, d), _spd(rng, d)])
        mix = core.GaussianMixture(np.array([0.4, 0.6]), means, covs)
        return core.CouplingSpec("independent", core.Gaussian(mean0, cov0), mix)
    if kind == "affine_map":
        A, b = rng.normal(size=(d, d)) + 2.0 * np.eye(d), rng.normal(size=d)
        mu1 = core.Gaussian(A @ mean0 + b, A @ cov0 @ A.T)
        return core.CouplingSpec(
            "deterministic_map", core.Gaussian(mean0, cov0), mu1, map=core.AffineMap(A, b)
        )
    if kind == "tabulated_map":
        x0 = rng.normal(size=(200, d))
        x1 = np.sin(2.0 * x0) + x0 ** 3 + rng.normal(size=d)
        return core.CouplingSpec("deterministic_map", core.Empirical(x0), core.Empirical(x1))
    return core.gaussian_joint_coupling(rng.normal(size=2 * d), _spd(rng, 2 * d))


class TestReynoldsTensorField:
    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(["independent", "affine_map", "tabulated_map", "gaussian_joint"]),
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 3000),
        coefficients=st.sampled_from(["affine", "trig"]),
        latent=st.booleans(),
        t=st.floats(0.05, 0.95),
        density_floor=st.sampled_from([0.0, 1.0, 25.0]),
    )
    def test_estimated_pi_is_symmetric_psd(
        self, kind, d, seed, n, coefficients, latent, t, density_floor
    ):
        rng = np.random.default_rng(seed)
        # a latent draw takes the latent family, whichever coefficients it drew
        spec = core.ProcessSpec("latent" if latent else coefficients, _coupling(kind, d, rng), d)
        endpoints = core.sample_endpoints(spec, n, seed)
        X, V, A = core.slice_state(spec, endpoints, t)
        box = list(zip(np.quantile(X, 0.01, axis=0), np.quantile(X, 0.99, axis=0)))
        grid = calculus.make_spatial_grid(box, 7 if d == 2 else 4)
        cfg = estimate.KernelConfig(density_floor=density_floor)
        fields = estimate.fields_on_grid(X, V, A, grid, cfg)  # never raises
        admissible = np.isfinite(fields["rho"])
        pi = fields["Pi"][admissible]
        scale = np.trace(fields["Sigma"][admissible], axis1=-2, axis2=-1)
        assert np.all(np.isfinite(pi))
        assert np.array_equal(pi, np.swapaxes(pi, -1, -2))
        # up to the rounding of the eigendecomposition that clips Pi
        assert np.all(np.linalg.eigvalsh(pi) >= -1e-12 * scale[:, None])


def moving_samples(seed, n, d):
    """Samples moving as X(t) = X0 + t V0 + t^2/2 A0: (X, V, A) at time t."""
    rng = np.random.default_rng(seed)
    X0, V0, A0 = rng.standard_normal((3, n, d))
    A0 = 0.5 * A0 + np.sin(X0)
    return lambda t: (X0 + t * V0 + 0.5 * t * t * A0, V0 + t * A0, A0)


def central_time_derivatives(f_minus, f_plus, dt):
    """``dt_rho``, ``dt_rho_v`` and ``dt_v`` by central differences of the
    field mappings at t - dt and t + dt, as arrays; NaN where either is."""
    values = lambda f: {"dt_rho": f["rho"], "dt_v": f["v"],
                        "dt_rho_v": f["rho"][..., None] * f["v"]}
    lo, hi = values(f_minus), values(f_plus)
    return {name: (hi[name] - lo[name]) / (2 * dt) for name in lo}


class TestTimeDerivatives:
    @pytest.mark.parametrize("d", [1, 2])
    def test_exact_equals_fixed_bandwidth_central_difference(self, d):
        slice_at = moving_samples(7, 4000 if d == 1 else 8000, d)
        t, dt = 0.5, 1e-5
        X = slice_at(t)[0]
        box = list(zip(*calculus.quantile_box(X)))
        grid = calculus.make_spatial_grid(box, 41 if d == 1 else 15)
        cfg = estimate.KernelConfig(bandwidth=estimate.silverman_bandwidth_from(X))
        f = estimate.fields_on_grid(*slice_at(t), grid, cfg, time_derivatives=True)
        f_m, f_p = (
            estimate.fields_on_grid(*slice_at(tt), grid, cfg) for tt in (t - dt, t + dt)
        )
        fd = central_time_derivatives(f_m, f_p, dt)
        ok = np.isfinite(f["rho"]) & np.isfinite(f_m["rho"]) & np.isfinite(f_p["rho"])
        assert ok.sum() > 0.5 * len(grid.interior_points())
        for name in ("dt_rho", "dt_rho_v", "dt_v"):
            exact, diff = f[name][ok], fd[name][ok]
            assert np.abs(exact - diff).max() <= 1e-6 * np.abs(exact).max(), name

    @pytest.mark.parametrize("order", [2, 4])
    def test_estimated_residuals_decay_at_stencil_order(self, order):
        # at a fixed bandwidth the estimate meets both laws exactly, so the
        # residuals are stencil error alone
        gauss = lambda m, v: core.Gaussian(np.array([m]), np.array([[v]]))
        coupling = core.CouplingSpec("independent", gauss(0.0, 1.0), gauss(1.0, 4.0))
        spec = core.ProcessSpec("trig", coupling, 1)
        X, V, A = core.slice_state(spec, core.sample_endpoints(spec, 20_000, seed=3), 0.5)
        box = list(zip(*calculus.quantile_box(X)))
        cfg = estimate.KernelConfig(bandwidth=0.15)
        relatives = []
        for nodes in (40, 80, 160):
            grid = calculus.make_spatial_grid(box, nodes)
            f = estimate.fields_on_grid(X, V, A, grid, cfg, time_derivatives=True)
            cont = calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"], order)
            mom = calculus.momentum_residual(
                grid, f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"], order
            )
            relatives.append([cont.relative, mom.relative])
        relatives = np.array(relatives)
        assert np.all(relatives[1:] < relatives[:-1])
        # the observed order over the last halving of the spacing
        assert np.all(np.log2(relatives[1] / relatives[2]) >= order - 0.3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strips_never_take_the_exp_underflow_path(self, d):
        # sparse queries over a wide box: every cell holds fewer than
        # _GATHER_QUERIES queries, so each query meets its whole axis-0 strip
        rng = np.random.default_rng(d)
        X = rng.standard_normal((4000, d)) * np.linspace(1.0, 3.0, d)
        V = rng.standard_normal((4000, d))
        points = rng.uniform(-6.0, 6.0, (30, d))
        h = 0.5 * estimate.silverman_bandwidth_from(X)
        with np.errstate(under="raise", invalid="raise"):
            estimate.nw_regress(X, V, points, h)
        if d > 1:  # without the floor these strips do reach it
            with mock.patch.object(estimate, "_STRIP_FLOOR", -np.inf):
                with np.errstate(under="raise"), pytest.raises(FloatingPointError):
                    estimate.nw_regress(X, V, points, h)
