import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightflow import calculus, core, estimate, flow, gaussian
from straightflow.errors import (
    InvalidArgumentError,
    LowDensityError,
    TrajectoryLeftSupportError,
)

from conftest import energy_distance, head, oracle_fields_dt

PI2_4 = np.pi**2 / 4


def const_oracle(c):
    c = np.asarray(c, dtype=float)
    return flow.VelocityOracle(lambda t, x: np.broadcast_to(c, np.shape(x)).copy())


def scaling_oracle():
    return flow.VelocityOracle(lambda t, x: np.asarray(x) / (1.0 + t))


def refusing_oracle(limit):
    """Unit velocity that refuses the query points beyond ``limit``."""

    def evaluate(t, x):
        x = np.atleast_2d(x)
        beyond = np.flatnonzero(x[:, 0] > limit)
        if beyond.size:
            raise LowDensityError("beyond the limit", rows=beyond)
        return np.ones_like(x)

    return flow.VelocityOracle(evaluate)


def counting(oracle):
    """The oracle with its evaluator calls counted in ``calls``."""
    calls = []

    def evaluate(t, x):
        calls.append(t)
        return oracle(t, x)

    return flow.VelocityOracle(evaluate), calls


def one_path(oracle, x0, steps, scheme):
    """The (K, d) states of the flow from the one point ``x0``, which must
    not fail."""
    res = flow.flow_map(oracle, np.reshape(x0, (1, -1)), steps, scheme)
    assert res.errors == []
    return res.states[0]


def deviation(states):
    """The straightness figures of one trajectory, as floats."""
    dev = flow.straightness_deviation(states[None])
    return flow.StraightnessDeviation(float(dev.chord_dev[0]), float(dev.second_diff[0]))


def _property_oracles():
    spec = core.ProcessSpec(
        "affine",
        core.CouplingSpec(
            "independent",
            core.Gaussian(np.array([0.0]), np.array([[1.0]])),
            core.Gaussian(np.array([1.0]), np.array([[4.0]])),
        ),
        1,
    )
    # not affine in x, and row results that depend on t
    non_affine = flow.VelocityOracle(
        lambda t, x: (1.0 - t) * (1.0 - 0.5 * np.asarray(x)) + t * np.sin(x)
    )
    return {"analytic": flow.analytic_velocity_oracle(spec), "non_affine": non_affine}


PROPERTY_ORACLES = _property_oracles()
KERNEL_CASES = [("affine", 1), ("affine", 2), ("trig", 1), ("trig", 2)]


@functools.lru_cache(maxsize=None)
def kernel_case(coefficients, d):
    """The independent N(0, I) -> N(0, I) process and 3,000 of its endpoints."""
    gauss = core.Gaussian(np.zeros(d), np.eye(d))
    spec = core.ProcessSpec(coefficients, core.CouplingSpec("independent", gauss, gauss), d)
    return spec, core.sample_endpoints(spec, 3000, seed=5)


@functools.lru_cache(maxsize=None)
def stranded_case():
    """The 1-D affine independent coupling of 1/2 N(-20, 0.01) + 1/2 N(20,
    0.01) with itself and 20,000 of its endpoints: at t = 0 no sample comes
    within eight bandwidths of 0.1 of a query midway between the modes."""
    mix = core.GaussianMixture(np.array([0.5, 0.5]), np.array([[-20.0], [20.0]]),
                               np.full((2, 1, 1), 0.01))
    spec = core.ProcessSpec("affine", core.CouplingSpec("independent", mix, mix), 1)
    return spec, core.sample_endpoints(spec, 20_000, seed=3)


@pytest.fixture(scope="module")
def oracle_affine_indep(affine_indep_spec):
    return flow.analytic_velocity_oracle(affine_indep_spec)


@pytest.fixture(scope="module")
def oracle_affine_det(affine_det2x_spec):
    return flow.analytic_velocity_oracle(affine_det2x_spec)


@pytest.fixture(scope="module")
def oracle_trig_det(trig_det_identity_spec):
    return flow.analytic_velocity_oracle(trig_det_identity_spec)


class TestIntegrate:
    def test_constant_velocity_exact(self):
        oracle, calls = counting(const_oracle([2.0, -1.0]))
        states = one_path(oracle, np.zeros(2), 7, "euler")
        expect = core.time_nodes(7)[:, None] * np.array([2.0, -1.0])
        assert np.allclose(states, expect, atol=1e-14)
        assert len(calls) == 7

    def test_scaling_field_rk4(self):
        oracle, calls = counting(scaling_oracle())
        states = one_path(oracle, np.array([1.0]), 100, "rk4")
        assert states[-1, 0] == pytest.approx(2.0, abs=1e-9)
        assert len(calls) == 400

    def test_curved_flow_separates_schemes(self, oracle_affine_indep):
        euler1 = one_path(oracle_affine_indep, np.array([1.0]), 1, "euler")
        assert euler1[-1, 0] == pytest.approx(0.0, abs=1e-14)
        rk4 = one_path(oracle_affine_indep, np.array([1.0]), 200, "rk4")
        assert abs(rk4[-1, 0] - euler1[-1, 0]) > 0.1
        # the true flow map is the identity at t=1 for equal marginals
        assert rk4[-1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidArgumentError):
            flow.flow_map(const_oracle([0.0]), np.zeros((1, 1)), 2, "heun")

    def test_midpoint_second_order(self):
        # dx/dt = -x^3 from x0 = 1 has solution 1/sqrt(1 + 2t)
        cubic = flow.VelocityOracle(lambda t, x: -np.asarray(x) ** 3)
        exact = 1.0 / np.sqrt(3.0)

        def endpoint(steps):
            return one_path(cubic, np.array([1.0]), steps, "midpoint")[-1, 0]

        e1, e2 = abs(endpoint(50) - exact), abs(endpoint(100) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_batch_matches_pointwise(self, oracle_affine_indep):
        pts = np.array([[-1.0], [0.3], [2.0]])
        steps = 37
        batch = flow.flow_map(oracle_affine_indep, pts, steps, "rk4")
        for i, p in enumerate(pts):
            single = one_path(oracle_affine_indep, p, steps, "rk4")
            assert np.allclose(batch.states[i], single, atol=1e-13)

    def test_kernel_oracle_low_density_becomes_left_support(self, affine_indep_spec):
        ens = core.sample_endpoints(affine_indep_spec, 100, seed=3)
        cfg = estimate.KernelConfig(density_floor=200.0)
        oracle = flow.kernel_velocity_oracle(affine_indep_spec, ens, cfg)
        res = flow.flow_map(oracle, np.array([[0.0]]), 4, "euler")
        (i, err), = res.errors
        assert i == 0 and isinstance(err, TrajectoryLeftSupportError)
        # refused at the first step: its trajectory is the start point alone
        assert np.array_equal(res.states[0, :, 0], [0.0] + [np.nan] * 4, equal_nan=True)

    def test_kernel_oracle_refuses_a_query_no_sample_weighs(self):
        # at a floor of 0 a query of effective n 0 is refused, as under any
        # floor, not stepped to the NaN of its 0 / 0 mean
        spec, ens = stranded_case()
        oracle = flow.kernel_velocity_oracle(spec, ens, estimate.KernelConfig(0.1, 0.0))
        res = flow.flow_map(oracle, np.array([[0.0]]), 10)
        (i, err), = res.errors
        assert i == 0 and isinstance(err, TrajectoryLeftSupportError)
        # effective n 0 is not below a floor of 0: the refusal says what holds
        assert str(err) == ("flow left the oracle support at t=0: "
                            "no sample weighs a query point at t=0")

    def test_kernel_oracle_refusal_under_a_floor_names_it(self):
        spec, ens = stranded_case()
        oracle = flow.kernel_velocity_oracle(spec, ens, estimate.KernelConfig(0.1, 25.0))
        with pytest.raises(LowDensityError, match=r"^effective_n 0 below floor 25.0 at t=0$"):
            oracle(0.0, np.array([[0.0]]))

    @pytest.mark.parametrize("floor", [0.0, 25.0])
    def test_kernel_oracle_refuses_the_nodes_the_grid_refuses(self, floor):
        # one density gate: at the nodes of a grid over the slice's quantile
        # box the oracle refuses exactly the nodes where the grid holds NaN
        spec, ens = stranded_case()
        cfg = estimate.KernelConfig(0.1, floor)
        X, V, A = core.slice_state(spec, ens, 0.0)
        grid = calculus.make_spatial_grid(list(zip(*calculus.quantile_box(X))), 41)
        refused = np.flatnonzero(np.isnan(estimate.fields_on_grid(X, V, A, grid, cfg)["rho"]))
        assert 0 < refused.size < grid.points().shape[0]
        with pytest.raises(LowDensityError) as info:
            flow.kernel_velocity_oracle(spec, ens, cfg)(0.0, grid.points())
        assert np.array_equal(info.value.rows, refused)

    def test_kernel_oracle_tracks_analytic(
        self, affine_indep_spec, ep_affine_indep_200k, oracle_affine_indep
    ):
        ens = head(ep_affine_indep_200k, 50_000)
        # the oracle regresses on the slice at t = 0.5 itself
        oracle = flow.kernel_velocity_oracle(affine_indep_spec, ens, estimate.KernelConfig())
        v_k = oracle(0.5, np.array([1.0]))
        v_a = oracle_affine_indep(0.5, np.array([1.0]))
        assert np.allclose(v_k, v_a, atol=0.05)

    @pytest.mark.parametrize("coefficients, d", [("affine", 1), ("trig", 2)])
    def test_kernel_oracle_is_nw_regress_on_node_slices(self, coefficients, d):
        # on the nodes of an integration grid the oracle is nw_regress on that
        # node's slice, bit for bit; between two nodes it is nw_regress on the
        # slice at t itself, not a blend of the neighbouring nodes' fields
        spec, ens = kernel_case(coefficients, d)
        cfg = estimate.KernelConfig()
        oracle = flow.kernel_velocity_oracle(spec, ens, cfg)
        pts = np.array([[-0.4], [0.0], [0.7]]) @ np.ones((1, d))

        def nw(t):
            X, V, _ = core.slice_state(spec, ens, t)
            return estimate.nw_regress(X, V, pts, estimate.resolve_bandwidth(cfg, X))[0]

        nodes = core.time_nodes(4)
        for t in nodes:
            assert np.array_equal(oracle(t, pts), nw(t))
        w = (0.3 - nodes[1]) / (nodes[2] - nodes[1])
        blend = (1.0 - w) * nw(nodes[1]) + w * nw(nodes[2])
        assert np.array_equal(oracle(0.3, pts), nw(0.3))
        assert not np.array_equal(oracle(0.3, pts), blend)
        assert oracle.stats.excursions == 0

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(KERNEL_CASES),
        t=st.floats(0.0, 1.0),
        coords=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
        floor=st.sampled_from([0.0, 25.0]),
    )
    def test_kernel_oracle_is_nw_regress_on_the_slice_at_t(self, case, t, coords, floor):
        # at any t the oracle is nw_regress on the slice at t, at the query
        # points clipped to that slice's quantile box, bit for bit; it counts
        # the clipped rows and refuses the rows under the density floor
        spec, ens = kernel_case(*case)
        cfg = estimate.KernelConfig(density_floor=floor)
        pts = np.reshape(coords, (-1, spec.dim))
        X, V, _ = core.slice_state(spec, ens, t)
        lo, hi = calculus.quantile_box(X)
        clipped = np.clip(pts, lo, hi)
        expect, eff = estimate.nw_regress(X, V, clipped, estimate.resolve_bandwidth(cfg, X))
        oracle = flow.kernel_velocity_oracle(spec, ens, cfg)
        refused = np.flatnonzero(eff < floor)
        if refused.size:
            with pytest.raises(LowDensityError) as info:
                oracle(t, pts)
            assert np.array_equal(info.value.rows, refused)
        else:
            assert np.array_equal(oracle(t, pts), expect)
        assert oracle.stats.excursions == np.sum(np.any(clipped != pts, axis=1))

    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(KERNEL_CASES), t=st.floats(0.0, 1.0))
    def test_kernel_oracle_is_the_estimated_field(self, case, t):
        # on the interior nodes of a grid over the slice's quantile box the
        # oracle is the velocity `fields --source estimate` tabulates at t
        spec, ens = kernel_case(*case)
        cfg = estimate.KernelConfig()
        X, V, A = core.slice_state(spec, ens, t)
        grid = calculus.make_spatial_grid(list(zip(*calculus.quantile_box(X))), 7)
        v = estimate.fields_on_grid(X, V, A, grid, cfg)["v"][(slice(1, -1),) * grid.dim]
        mask = np.isfinite(v[..., 0])
        assert mask.any()
        oracle = flow.kernel_velocity_oracle(spec, ens, cfg)
        got = oracle(t, grid.interior_points()[mask.ravel()])
        assert np.allclose(got, v[mask], rtol=0.0, atol=1e-12)
        assert oracle.stats.excursions == 0

    def test_kernel_oracle_at_2d_grid_nodes_is_the_grid_velocity(self):
        # the oracle sums pair by pair and the grid by its separable fold;
        # at a grid's nodes both give one velocity, up to rounding
        cfg = estimate.KernelConfig()
        for coefficients in ("affine", "trig"):
            spec, ens = kernel_case(coefficients, 2)
            X, V, A = core.slice_state(spec, ens, 0.5)
            grid = calculus.make_spatial_grid(list(zip(*calculus.quantile_box(X))), 12)
            v = estimate.fields_on_grid(X, V, A, grid, cfg)["v"].reshape(-1, 2)
            admissible = np.isfinite(v[:, 0])
            assert admissible.sum() > 0.5 * admissible.size
            oracle = flow.kernel_velocity_oracle(spec, ens, cfg)
            got = oracle(0.5, grid.points()[admissible])
            np.testing.assert_allclose(got, v[admissible], rtol=1e-12, atol=0.0)
            assert oracle.stats.excursions == 0


class TestFlowMap:
    def test_preserves_order_and_collects_errors(self, affine_indep_spec):
        ens = core.sample_endpoints(affine_indep_spec, 3000, seed=5)
        oracle = flow.kernel_velocity_oracle(affine_indep_spec, ens, estimate.KernelConfig())
        pts = np.array([[0.0], [0.5], [-0.5]])
        res = flow.flow_map(oracle, pts, 8, "midpoint")
        assert res.states.shape == (3, 9, 1)
        assert res.errors == []
        for i, states in enumerate(res.states):
            assert np.allclose(states[0], pts[i])

    def test_kernel_mixed_dense_and_refused_points(self, affine_indep_spec):
        ens = core.sample_endpoints(affine_indep_spec, 3000, seed=5)
        oracle = flow.kernel_velocity_oracle(
            affine_indep_spec, ens, estimate.KernelConfig(density_floor=200.0)
        )
        pts = np.array([[0.0], [3.0], [0.3], [-3.0], [-0.4]])
        steps = 8
        res = flow.flow_map(oracle, pts, steps, "midpoint")
        assert [i for i, _ in res.errors] == [1, 3]
        assert all(isinstance(err, TrajectoryLeftSupportError) for _, err in res.errors)
        assert res.kept == [0, 2, 4]
        assert np.isnan(res.states[[1, 3], -1]).all()
        for i in res.kept:
            single = one_path(oracle, pts[i], steps, "midpoint")
            assert np.allclose(res.states[i], single, rtol=0.0, atol=1e-12)
        summary = flow.one_step_error(oracle, pts, reference_steps=20)
        assert np.isnan(summary.errors[[1, 3]]).all()
        assert np.isfinite(summary.errors[[0, 2, 4]]).all()
        assert summary.max_error == summary.errors[[0, 2, 4]].max()

    def test_refusal_mid_flight_keeps_partial_trajectory(self):
        oracle = refusing_oracle(1.0)
        pts = np.array([[0.0], [0.55], [-1.0]])
        steps = 4
        res = flow.flow_map(oracle, pts, steps, "euler")
        (i, err), = res.errors
        assert i == 1 and res.kept == [0, 2] and isinstance(err, TrajectoryLeftSupportError)
        # the refused point holds its nodes t = 0, 0.25, 0.5 and NaN past them
        np.testing.assert_allclose(res.states[1, :, 0], [0.55, 0.8, 1.05, np.nan, np.nan])
        assert np.allclose(res.states[res.kept, -1, 0], [1.0, 0.0])
        alone = flow.flow_map(oracle, pts[1:2], steps, "euler")
        (j, single), = alone.errors
        assert j == 0 and isinstance(single, TrajectoryLeftSupportError)
        assert np.array_equal(alone.states[0], res.states[1], equal_nan=True)

    def test_redone_step_counts_excursions_once(self):
        # every query point counts as an excursion before the refusal, as the
        # kernel oracle counts its clamped points
        stats = flow.OracleStats()
        refusing = refusing_oracle(1.0)

        def evaluate(t, x):
            stats.excursions += np.atleast_2d(x).shape[0]
            return refusing(t, x)

        oracle = flow.VelocityOracle(evaluate, stats)
        pts = np.array([[0.0], [0.55], [-1.0]])
        res = flow.flow_map(oracle, pts, 4, "euler")
        assert [i for i, _ in res.errors] == [1]
        # steps 0 and 1 with three points; step 2, redone after the refusal,
        # and step 3 with two
        assert stats.excursions == 3 + 3 + 2 + 2

    def test_non_finite_state_stops_only_that_point(self):
        oracle = flow.VelocityOracle(lambda t, x: np.where(np.asarray(x) < -0.5, np.inf, 1.0))
        res = flow.flow_map(oracle, np.array([[0.0], [-1.0]]), 4, "rk4")
        (i, err), = res.errors
        assert i == 1 and isinstance(err, InvalidArgumentError)
        assert res.kept == [0] and res.states[0, -1, 0] == pytest.approx(1.0)

    def test_one_step_raises_only_when_every_point_fails(self):
        oracle = refusing_oracle(1.0)
        summary = flow.one_step_error(oracle, np.array([[0.9], [-3.0]]), reference_steps=10)
        assert np.isnan(summary.errors[0]) and summary.max_error == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(LowDensityError):
            flow.one_step_error(oracle, np.array([[0.9], [0.95]]), reference_steps=10)

    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
        steps=st.integers(1, 12),
    )
    def test_rows_equal_pointwise_integration(self, points, steps):
        pts = np.array(points)[:, None]
        for oracle in PROPERTY_ORACLES.values():
            for scheme in ("euler", "midpoint", "rk4"):
                res = flow.flow_map(oracle, pts, steps, scheme)
                assert res.errors == []
                for p, states in zip(pts, res.states):
                    np.testing.assert_array_equal(states, one_path(oracle, p, steps, scheme))

    def test_analytic_batching(self, oracle_affine_det):
        pts = np.array([[0.1], [1.0], [-2.0]])
        res = flow.flow_map(oracle_affine_det, pts, 50, "rk4")
        ends = res.states[res.kept, -1]
        assert np.allclose(ends, 2.0 * pts, atol=1e-8)


class TestStraightness:
    def test_exact_line_zero(self):
        dev = deviation(one_path(const_oracle([1.5]), np.array([0.7]), 10, "euler"))
        assert dev.chord_dev == pytest.approx(0.0, abs=1e-13)
        assert dev.second_diff == pytest.approx(0.0, abs=1e-10)

    def test_trig_deterministic_bulge(self, oracle_trig_det):
        dev = deviation(one_path(oracle_trig_det, np.array([1.0]), 400, "rk4"))
        assert dev.chord_dev == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-3)

    def test_affine_deterministic_straight(self, oracle_affine_det):
        dev = deviation(one_path(oracle_affine_det, np.array([1.0]), 100, "rk4"))
        assert dev.chord_dev <= 1e-6

    def test_needs_three_nodes(self):
        states = one_path(const_oracle([1.0]), np.zeros(1), 1, "euler")
        with pytest.raises(InvalidArgumentError):
            deviation(states)

    def test_batch_equals_rows(self):
        # enough points for several blocks, so the block seams are covered
        states = core.aux_rng(0, 11).standard_normal((1500, 101, 2))
        dev = flow.straightness_deviation(states)
        rows = [flow.straightness_deviation(s[None]) for s in states]
        np.testing.assert_array_equal(dev.chord_dev, [r.chord_dev[0] for r in rows])
        np.testing.assert_array_equal(dev.second_diff, [r.second_diff[0] for r in rows])


class TestOneStep:
    def test_straight_flow_euler_exact(self, oracle_affine_det):
        pts = core.aux_rng(0, 9).standard_normal((100, 1))
        summary = flow.one_step_error(oracle_affine_det, pts)
        assert summary.max_error <= 1e-6

    def test_curved_flow_euler_wrong(self, oracle_affine_indep):
        summary = flow.one_step_error(oracle_affine_indep, np.array([[1.0]]))
        assert summary.max_error >= 0.5

    def test_zero_field(self):
        summary = flow.one_step_error(const_oracle([0.0]), np.array([[0.3], [1.0]]))
        assert summary.max_error == pytest.approx(0.0, abs=1e-14)


class TestReferenceSizing:
    """The one-step reference doubles its steps only while its endpoints move."""

    def test_straight_flow_stops_at_second_run(self, affine_ot_spec):
        oracle, calls = counting(
            flow.analytic_velocity_oracle(affine_ot_spec)
        )
        pts = affine_ot_spec.coupling.mu0.draw(core.aux_rng(0, 9), 50)
        summary = flow.one_step_error(oracle, pts)
        assert len(calls) == 1 + 4 * (25 + 50)
        assert summary.reference_steps == 50
        assert summary.reference_gap <= 1e-9

    def test_analytic_oracle_builds_one_model_per_time(self, affine_ot_spec):
        # the flow and the one-step reference runs revisit each other's times;
        # an oracle that keeps fewer times than they span builds some again
        pts = affine_ot_spec.coupling.mu0.draw(core.aux_rng(0, 9), 64)
        for kept, builds in ((flow._ORACLE_TIMES, 216), (4, 353)):
            model = mock.patch.object(flow, "_conditional_model", wraps=flow._conditional_model)
            with model as build, mock.patch.object(flow, "_ORACLE_TIMES", kept):
                oracle, calls = counting(
                    flow.analytic_velocity_oracle(affine_ot_spec)
                )
                flow.flow_map(oracle, pts, 100, "rk4")
                flow.one_step_error(oracle, pts)
            assert len(calls) == 4 * 100 + 1 + 4 * (25 + 50)
            assert len({float(t) for t in calls}) == 216
            assert build.call_count == builds

    def test_cap_below_first_run_runs_once(self, oracle_affine_indep):
        oracle, calls = counting(oracle_affine_indep)
        summary = flow.one_step_error(oracle, np.array([[1.0]]), reference_steps=10)
        assert len(calls) == 1 + 4 * 10
        assert summary.reference_steps == 10 and summary.reference_gap is None

    def test_unmet_rule_runs_to_cap(self):
        # x' = 20 x: rk4 at 50 and 100 steps still differ by 3e-3 of the error
        oracle, calls = counting(flow.VelocityOracle(lambda t, x: 20.0 * np.asarray(x)))
        summary = flow.one_step_error(oracle, np.array([[1.0]]), reference_steps=100)
        assert summary.reference_steps == 100
        assert len(calls) == 1 + 4 * (25 + 50 + 100)
        assert summary.reference_gap > 1e-3 * summary.max_error

    @settings(max_examples=20, deadline=None)
    @given(
        coefficients=st.sampled_from(["affine", "trig"]),
        ot=st.booleans(),
        dim=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_sized_agrees_with_fixed_reference(self, coefficients, ot, dim, seed):
        rng = core.aux_rng(seed, 0)

        def gaussian_draw():
            L = np.tril(rng.uniform(-1.0, 1.0, (dim, dim)), -1)
            L += np.diag(rng.uniform(0.5, 2.0, dim))
            return core.Gaussian(rng.uniform(-2.0, 2.0, dim), L @ L.T)

        mu0, mu1 = gaussian_draw(), gaussian_draw()
        amap = gaussian.gaussian_ot_map(mu0.mean, mu0.cov, mu1.mean, mu1.cov) if ot else None
        coupling = core.CouplingSpec("deterministic_map" if ot else "independent", mu0, mu1,
                                     map=amap)
        spec = core.ProcessSpec(coefficients, coupling, dim)
        oracle = flow.analytic_velocity_oracle(spec)
        pts = mu0.draw(rng, 5)

        summary = flow.one_step_error(oracle, pts)
        euler = flow.flow_map(oracle, pts, 1, "euler").states[:, -1]
        fixed = flow.flow_map(oracle, pts, 400, "rk4").states[:, -1]
        errors = np.linalg.norm(euler - fixed, axis=1)
        assert summary.reference_gap is not None
        assert np.abs(summary.errors - errors).max() <= max(summary.reference_gap, 1e-12)


class TestSchemeConsistency:
    def test_rk4_reference_stability(self, oracle_affine_indep):
        e200 = one_path(oracle_affine_indep, np.array([1.0]), 200, "rk4")
        e400 = one_path(oracle_affine_indep, np.array([1.0]), 400, "rk4")
        assert abs(e200[-1, 0] - e400[-1, 0]) <= 1e-8


class TestEnergyDistance:
    def test_identical_samples_zero(self):
        x = np.linspace(-1, 1, 50)
        assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_null_scale(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(10_000), rng.standard_normal(10_000)
        assert energy_distance(a, b) <= 0.01

    def test_mean_shift_detected(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 3.0
        assert energy_distance(a, b) >= 1.0

    def test_fast_path_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal(257), 0.5 * rng.standard_normal(301) + 0.2
        fast = energy_distance(a, b)
        dab = np.abs(a[:, None] - b[None, :]).mean()
        daa = np.abs(a[:, None] - a[None, :]).mean()
        dbb = np.abs(b[:, None] - b[None, :]).mean()
        assert fast == pytest.approx(2 * dab - daa - dbb, rel=1e-12)

    def test_multivariate_chunked(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((280, 2)) + [1.0, 0.0]
        ed = energy_distance(a, b)
        dab = np.linalg.norm(a[:, None] - b[None, :], axis=-1).mean()
        daa = np.linalg.norm(a[:, None] - a[None, :], axis=-1).mean()
        dbb = np.linalg.norm(b[:, None] - b[None, :], axis=-1).mean()
        assert ed == pytest.approx(2 * dab - daa - dbb, rel=1e-12)
        assert ed > 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            energy_distance(np.array([]), np.array([1.0]))


class TestMarginalTransport:
    def test_flow_pushes_source_onto_target(self, affine_ot_spec):
        oracle = flow.analytic_velocity_oracle(affine_ot_spec)
        rng = core.aux_rng(0, 42)
        n = 2000
        src = affine_ot_spec.coupling.mu0.draw(rng, n)
        res = flow.flow_map(oracle, src, 200, "rk4")
        ends = res.states[res.kept, -1]
        tgt = affine_ot_spec.coupling.mu1.draw(rng, n)
        observed = energy_distance(ends, tgt)
        null = [
            energy_distance(
                affine_ot_spec.coupling.mu1.draw(rng, n), affine_ot_spec.coupling.mu1.draw(rng, n)
            )
            for _ in range(20)
        ]
        assert observed <= np.quantile(null, 0.95)


class TestTripleAgreement:
    """second_diff, material-derivative norm and balance verdict agree."""

    TOL_SECOND = 1e-3
    TOL_MATERIAL = 1e-3

    @pytest.mark.parametrize(
        "spec_name,expected_straight",
        [
            ("affine_det2x_spec", True),
            ("trig_indep_spec", True),
            ("affine_indep_spec", False),
            ("trig_det_identity_spec", False),
        ],
    )
    def test_indicators_agree(self, spec_name, expected_straight, request):
        spec = request.getfixturevalue(spec_name)
        oracle = flow.analytic_velocity_oracle(spec)

        states = one_path(oracle, np.array([1.0]), 200, "rk4")
        second_ok = deviation(states).second_diff <= self.TOL_SECOND

        t = 0.4
        grid = calculus.make_spatial_grid(gaussian.oracle_box(spec, t), 61)
        f = oracle_fields_dt(spec, t, grid)
        material = calculus.material_residual(grid, f["v"], f["dt_v"])
        material_ok = material.max_abs <= self.TOL_MATERIAL
        bal = calculus.balance_residual(grid, f["rho"], f["Pi"], f["a"])
        balance_ok = bal.verdict == "straight-compatible"

        assert second_ok == expected_straight
        assert material_ok == expected_straight
        assert balance_ok == expected_straight
