import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from straightflow import calculus, gaussian
from straightflow.errors import InvalidArgumentError, InvalidGridError

from conftest import oracle_fields_dt


PI2_4 = np.pi**2 / 4


def grid1d(lo=-3.0, hi=3.0, n=61):
    return calculus.make_spatial_grid([(lo, hi)], n)


def grid2d(n=21):
    return calculus.make_spatial_grid([(-1.0, 1.0), (-1.0, 1.0)], n)


def scalar_field(grid, fn):
    return fn(*grid.meshgrid())


def vector_field(grid, fns):
    mesh = grid.meshgrid()
    return np.stack([fn(*mesh) for fn in fns], axis=-1)


def matrix_field(grid, fns):
    # fns[i][j] gives component (i, j)
    mesh = grid.meshgrid()
    d = grid.dim
    vals = np.empty(grid.shape + (d, d))
    for i in range(d):
        for j in range(d):
            vals[..., i, j] = fns[i][j](*mesh)
    return vals


def admissible(grid, field):
    """The nodes where every component of the field is finite."""
    return np.all(np.isfinite(field.reshape(grid.shape + (-1,))), axis=-1)


def gradient(grid, f, order=4):
    """grad f as the divergence of f I: sum_i d_i (f delta_ij) = d_j f."""
    return calculus.divergence(grid, f[..., None, None] * np.eye(grid.dim), order)


def stencil_reads(n, k, order):
    """The nodes along an axis of n nodes that the first-derivative stencil at
    node k reads, or None on the outer layer, where it gives no value."""
    if k in (0, n - 1):
        return None
    if order == 4 and n >= 5:
        if k == 1:
            return range(5)
        if k == n - 2:
            return range(n - 5, n)
        return (k - 2, k - 1, k + 1, k + 2)
    return (k - 1, k + 1)


def stencil_meets_a_hole(holes, order):
    """Per node: it lies on the outer layer of some axis, or its stencil along
    some axis reads a hole."""
    out = np.zeros(holes.shape, dtype=bool)
    for node in np.ndindex(holes.shape):
        for axis, k in enumerate(node):
            reads = stencil_reads(holes.shape[axis], k, order)
            if reads is None or any(holes[node[:axis] + (j,) + node[axis + 1:]] for j in reads):
                out[node] = True
                break
    return out


class TestGradient:
    @pytest.mark.parametrize("order", [2, 4])
    def test_constant_gives_zero(self, order):
        grid = grid2d()
        g = gradient(grid, scalar_field(grid, lambda x, y: np.full_like(x, 3.3)), order=order)
        assert np.allclose(g[admissible(grid, g)], 0.0, atol=1e-14)

    @pytest.mark.parametrize("order", [2, 4])
    def test_linear_exact(self, order):
        grid = grid2d()
        g = gradient(grid, scalar_field(grid, lambda x, y: 3.0 * x), order=order)
        got = g[admissible(grid, g)]
        assert np.allclose(got[:, 0], 3.0, atol=1e-12)
        assert np.allclose(got[:, 1], 0.0, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 4])
    def test_quadratic_exact(self, order):
        grid = grid1d(-1.0, 1.0, 201)  # h = 0.01
        g = gradient(grid, scalar_field(grid, lambda x: x**2), order=order)
        x = grid.meshgrid()[0]
        err = np.abs(g[..., 0] - 2 * x)[admissible(grid, g)]
        assert err.max() <= 1e-10

    @settings(max_examples=60)
    @given(
        d=st.integers(1, 3),
        order=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**32 - 1),
        keep=st.floats(0.0, 1.0),
    )
    def test_exact_on_random_quadratics(self, d, order, seed, keep):
        # f = c + b.x + x.Q x on a random box and node count per axis, with
        # random NaN holes: the gradient reads NaN exactly at the nodes on the
        # outer layer or whose stencil meets a hole, and is exact at all others
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-5.0, 5.0, size=d)
        hi = lo + rng.uniform(0.5, 10.0, size=d)
        grid = calculus.make_spatial_grid(list(zip(lo, hi)), rng.integers(3, 13 if d < 3 else 8, size=d))
        holes = ~(rng.random(grid.shape) < keep)
        c, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0, size=d)
        Q = rng.uniform(-2.0, 2.0, size=(d, d))
        x = np.stack(grid.meshgrid(), axis=-1)
        f = c + x @ b + np.einsum("...i,ij,...j->...", x, Q, x)
        refused = stencil_meets_a_hole(holes, order)
        g = gradient(grid, np.where(holes, np.nan, f), order=order)
        assert np.array_equal(np.isnan(g), np.repeat(refused[..., None], d, axis=-1))
        exact = b + x @ (Q + Q.T).T
        tol = 1e-12 * (1.0 + np.abs(f).max()) / min(grid.spacings)
        assert np.all(np.abs(g - exact)[~refused] <= tol)
        # and the divergence of that gradient field is the trace of Q + Q^T
        div = calculus.divergence(grid, np.where(holes[..., None], np.nan, exact), order=order)
        assert np.array_equal(np.isnan(div), refused)
        assert np.all(np.abs(div - np.trace(Q + Q.T))[~refused] <= tol)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidGridError):
            calculus.make_spatial_grid([(-1.0, 1.0)], 2)


class TestSpatialGrid:
    def test_linspace_axes_far_from_the_origin_accepted(self):
        for c in (1e4, 1e5, -1e8):
            for nodes in (12, 21, 120):
                for width in (0.5, 6.0, 20.0):
                    grid = calculus.make_spatial_grid([(c - width / 2, c + width / 2)], nodes)
                    assert grid.shape == (nodes,)

    @pytest.mark.parametrize("c", [0.0, 1e4, 1e8])
    def test_one_node_off_by_a_millionth_of_the_spacing_refused(self, c):
        axis = np.linspace(c - 3.0, c + 3.0, 21)
        calculus.SpatialGrid((axis.copy(),))
        axis[10] += 1e-6 * (axis[1] - axis[0])
        with pytest.raises(InvalidGridError):
            calculus.SpatialGrid((axis,))

    def test_the_callers_axis_stays_writable(self):
        axis = np.linspace(-1.0, 1.0, 5)
        grid = calculus.SpatialGrid((axis,))
        axis[0] = -2.0
        assert grid.axes[0][0] == -1.0
        assert not grid.axes[0].flags.writeable

    def test_interior_points_are_the_nodes_off_the_outer_layer(self):
        grid = calculus.make_spatial_grid([(-1.0, 1.0), (0.0, 0.3)], [4, 5])
        nodes = grid.points().reshape(grid.shape + (2,))
        assert np.array_equal(grid.interior_points(), nodes[1:-1, 1:-1].reshape(-1, 2))


class TestDivergenceMatrix:
    def test_constant_matrix(self):
        grid = grid2d()
        T = matrix_field(grid, [[lambda x, y: np.full_like(x, 2.0)] * 2] * 2)
        div = calculus.divergence(grid, T)
        assert np.allclose(div[admissible(grid, div)], 0.0, atol=1e-14)

    def test_diagonal_coordinates(self):
        # T = diag(x, y): (div T)_j = d_j T_jj = 1
        grid = grid2d()
        zero = lambda x, y: np.zeros_like(x)
        T = matrix_field(grid, [[lambda x, y: x, zero], [zero, lambda x, y: y]])
        div = calculus.divergence(grid, T)
        assert np.allclose(div[admissible(grid, div)], 1.0, atol=1e-12)

    def test_outer_product_with_constant(self):
        # T_ij = x_i c_j: (div T)_j = d c_j
        grid = grid2d()
        c = np.array([0.7, -1.1])
        fns = [[(lambda x, y, i=i, j=j: (x if i == 0 else y) * c[j]) for j in range(2)] for i in range(2)]
        div = calculus.divergence(grid, matrix_field(grid, fns))
        got = div[admissible(grid, div)]
        assert np.allclose(got, 2.0 * c, atol=1e-12)

    def test_contracts_first_index(self):
        # T_01 = x0, all other entries zero: correct convention gives (0, 1);
        # contracting the second index instead would give (0, 0).
        grid = grid2d()
        zero = lambda x, y: np.zeros_like(x)
        div = calculus.divergence(grid, matrix_field(grid, [[zero, lambda x, y: x], [zero, zero]]))
        got = div[admissible(grid, div)]
        assert np.allclose(got[:, 0], 0.0, atol=1e-13)
        assert np.allclose(got[:, 1], 1.0, atol=1e-12)


def oracle_fields(spec, t, grid):
    return gaussian.fields_on_grid(spec, t, grid)


class TestMaterialDerivative:
    def test_constant_velocity_vanishes(self):
        grid = grid1d(n=11)
        v = vector_field(grid, [lambda x: np.full_like(x, 2.0)])
        steady = vector_field(grid, [lambda x: np.zeros_like(x)])
        out = calculus.material_derivative(grid, v, steady)
        assert np.allclose(out[admissible(grid, out)], 0.0, atol=1e-12)

    def test_deterministic_scaling_vanishes(self):
        # v = x / (1 + t) has d_t v = -x / (1 + t)^2 = -(v . grad) v
        grid = grid1d(-2.0, 2.0, 201)
        v = vector_field(grid, [lambda x: x / 1.5])
        dt_v = vector_field(grid, [lambda x: -x / 1.5**2])
        out = calculus.material_derivative(grid, v, dt_v)
        assert np.abs(out[admissible(grid, out)]).max() <= 1e-8

    def test_affine_independent_matches_4x(self, affine_indep_spec):
        grid = calculus.make_spatial_grid([(-2.0, 2.0)], 401)  # h = 0.01
        f = oracle_fields_dt(affine_indep_spec, 0.5, grid)
        out = calculus.material_derivative(grid, f["v"], f["dt_v"])
        x = grid.meshgrid()[0]
        err = np.abs(out[..., 0] - 4.0 * x)[admissible(grid, out)]
        assert err.max() <= 1e-4


class TestMomentumResidual:
    def test_trig_independent_small(self, trig_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 601)  # h = 0.01
        f = oracle_fields_dt(trig_indep_spec, 0.5, grid)
        rep = calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"])
        assert rep.max_abs <= 1e-3

    def test_affine_deterministic_small(self, affine_det2x_spec):
        grid = calculus.make_spatial_grid([(-4.5, 4.5)], 901)
        f = oracle_fields_dt(affine_det2x_spec, 0.5, grid)
        rep = calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], f["a"], f["dt_rho_v"])
        assert rep.max_abs <= 1e-3

    def test_corrupted_acceleration_detected(self, trig_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 121)
        f = oracle_fields_dt(trig_indep_spec, 0.5, grid)
        a_bad = f["a"] + 1.0
        rep = calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], a_bad, f["dt_rho_v"])
        m = admissible(grid, rep.residual)
        rho_vals = f["rho"][m]
        res_vals = np.abs(rep.residual[..., 0])[m]
        assert np.allclose(res_vals, rho_vals, rtol=1e-2, atol=1e-6)


class TestBalanceResidual:
    def test_trig_independent_satisfies(self, trig_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 60)
        fc = oracle_fields(trig_indep_spec, 0.5, grid)
        rep = calculus.balance_residual(grid, fc["rho"], fc["Pi"], fc["a"])
        assert rep.relative <= 1e-3
        assert rep.verdict == "straight-compatible"

    def test_affine_deterministic_identically_zero(self, affine_det2x_spec):
        grid = calculus.make_spatial_grid([(-4.0, 4.0)], 60)
        fc = oracle_fields(affine_det2x_spec, 0.4, grid)
        rep = calculus.balance_residual(grid, fc["rho"], fc["Pi"], fc["a"])
        assert rep.max_abs <= 1e-12
        assert rep.relative == 0.0

    def test_trig_deterministic_fails(self, trig_det_identity_spec):
        grid = calculus.make_spatial_grid([(-4.0, 4.0)], 60)
        fc = oracle_fields(trig_det_identity_spec, 0.5, grid)
        rep = calculus.balance_residual(grid, fc["rho"], fc["Pi"], fc["a"])
        assert rep.relative == pytest.approx(1.0, abs=0.05)
        assert rep.verdict == "not-straight-compatible"


class TestContinuityResidual:
    def test_static_process_vanishes(self):
        grid = grid1d(n=41)
        rho = scalar_field(grid, lambda x: np.exp(-(x**2) / 2))
        v = vector_field(grid, [lambda x: np.zeros_like(x)])
        steady = scalar_field(grid, lambda x: np.zeros_like(x))
        rep = calculus.continuity_residual(grid, rho, v, steady)
        assert rep.max_abs == 0.0

    def test_affine_independent_midpoint(self, affine_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 61)
        f = oracle_fields_dt(affine_indep_spec, 0.5, grid)
        rep = calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"])
        assert rep.relative <= 1e-3

    def test_doubled_velocity_detected(self, affine_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 121)
        fc = oracle_fields_dt(affine_indep_spec, 0.3, grid)
        rep = calculus.continuity_residual(grid, fc["rho"], 2.0 * fc["v"], fc["dt_rho"])
        flux = calculus.divergence(grid, fc["rho"][..., None] * fc["v"])
        m = admissible(grid, rep.residual)
        assert np.allclose(rep.residual[m], flux[m], rtol=1e-3, atol=1e-8)
        assert rep.relative > 0.05


class TestConvergenceOrder:
    @pytest.mark.parametrize("spec_name", ["trig_indep_spec", "affine_indep_spec"])
    def test_halving_h_shrinks_momentum_and_continuity(self, spec_name, request):
        spec = request.getfixturevalue(spec_name)
        t = 0.3

        def residuals(n_nodes):
            grid = calculus.make_spatial_grid([(-3.0, 3.0)], n_nodes)
            f = oracle_fields_dt(spec, t, grid)
            mom = calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], f["a"],
                                             f["dt_rho_v"])
            cont = calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"])
            return mom.max_abs, cont.max_abs

        m1, c1 = residuals(61)   # h = 0.1
        m2, c2 = residuals(121)  # h = 0.05
        assert m1 / m2 >= 3.5
        if c1 > 1e-14:  # trig-independent continuity is exactly zero
            assert c1 / c2 >= 3.5


class TestProductRule:
    def test_divergence_product_rule_synthetic(self):
        # div(rho Pi) = rho div(Pi) + Pi grad(rho) for symmetric Pi
        grid = grid2d(41)
        rho = scalar_field(grid, lambda x, y: np.exp(-(x**2 + y**2) / 2))
        fns = [
            [lambda x, y: 1.0 + x**2, lambda x, y: 0.3 * x * y],
            [lambda x, y: 0.3 * x * y, lambda x, y: 2.0 + y**2],
        ]
        Pi = matrix_field(grid, fns)
        direct = calculus.divergence(grid, rho[..., None, None] * Pi)
        div_pi = calculus.divergence(grid, Pi)
        assembled = rho[..., None] * div_pi + np.einsum("...ij,...i->...j", Pi, gradient(grid, rho))
        m = admissible(grid, direct)
        assert np.allclose(direct[m], assembled[m], atol=5e-3)

    def test_divergence_product_rule_oracle(self, affine_indep_spec):
        grid = calculus.make_spatial_grid([(-3.0, 3.0)], 301)
        fc = oracle_fields(affine_indep_spec, 0.3, grid)
        rho, Pi = fc["rho"], fc["Pi"]
        direct = calculus.divergence(grid, rho[..., None, None] * Pi)
        assembled = np.einsum("...ij,...i->...j", Pi, gradient(grid, rho))
        m = admissible(grid, direct)
        assert np.allclose(direct[m], assembled[m], atol=1e-10)


class TestQuantileBox:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        d=st.integers(1, 3),
        decimals=st.sampled_from([None, 0, 1]),
        offset=st.sampled_from([0.0, -1e5, 1e5]),
    )
    def test_one_call_equals_the_two_quantiles(self, seed, n, d, decimals, offset):
        rng = np.random.default_rng(seed)
        X = offset + rng.standard_normal((n, d))
        if decimals is not None:  # ties, and runs of equal values at the quantiles
            X = np.round(X, decimals)
        lo, hi = calculus.quantile_box(X)
        for got, q in ((lo, 0.01), (hi, 0.99)):
            want = np.quantile(X, q, axis=0)
            assert got.shape == (d,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestCsvExport:
    def test_row_format_and_nan_sentinels(self):
        grid = grid1d(-1.0, 1.0, 3)
        vals = np.array([np.nan, 0.5, np.nan])
        text = calculus.grid_field_to_csv(grid, vals)
        lines = text.strip().split("\n")
        assert lines[0] == "x0,value"
        assert lines[1].split(",")[1] == "nan"
        assert lines[2] == "-0.0,0.5" or lines[2] == "0.0,0.5"

    def test_vector_columns(self):
        grid = grid2d(3)
        v = vector_field(grid, [lambda x, y: x, lambda x, y: y])
        lines = calculus.grid_field_to_csv(grid, v).strip().split("\n")
        assert lines[0] == "x0,x1,v0,v1"
        assert len(lines) == 1 + 9


def reference_csv_rows(lead, values) -> str:
    """The per-cell reference: one ``repr(float(c))`` call for every cell."""
    return "".join(
        ",".join(list(head) + [repr(float(c)) for c in row]) + "\n"
        for head, row in zip(lead, values, strict=True)
    )


# Doubles whose text is easy to get wrong: both zeros, NaNs with other sign and
# payload bits, infinities, subnormals and the largest magnitudes.
_SPECIAL_BITS = [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]
SPECIAL_DOUBLES = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
                   1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1,
                   *np.array(_SPECIAL_BITS, dtype=np.uint64).view(np.float64).tolist()]


def text_lead(sizes):
    """Lead factors of the given sizes, every text telling its factor and place."""
    return [[f"c{k}_{i}" for i in range(size)] for k, size in enumerate(sizes)]


@st.composite
def lead_sizes(draw, n):
    """Up to three factor sizes whose product is ``n``: each but the last a
    divisor of what is left, so a row count with no handy factors goes in as
    one list; for ``n`` = 0 one factor is empty and the others any size."""
    count = draw(st.integers(0 if n == 1 else 1, 3))
    if n == 0:
        sizes = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        sizes[draw(st.integers(0, count - 1))] = 0
        return sizes
    sizes = []
    for _ in range(count - 1):
        sizes.append(draw(st.sampled_from([f for f in range(1, n + 1) if n % f == 0])))
        n //= sizes[-1]
    return sizes + [n] if count else sizes


@st.composite
def csv_tables(draw, block_rows):
    """A (rows, width) table drawn from a small pool of doubles, so that values
    repeat heavily, at a row count around the block boundaries, and a text
    lead whose product has one tuple per row."""
    n = draw(st.sampled_from([0, 1, block_rows - 1, block_rows, block_rows + 1,
                              2 * block_rows + 1]))
    width = draw(st.integers(1, 4))
    pool = draw(st.lists(st.sampled_from(SPECIAL_DOUBLES) | st.floats(), min_size=1,
                         max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * width,
                          max_size=n * width))
    values = np.array([pool[i] for i in picks], dtype=float).reshape(n, width)
    return text_lead(draw(lead_sizes(n))), values


class TestCsvBlocks:
    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_per_cell_reference(self, block_rows, data):
        lead, values = data.draw(csv_tables(block_rows))
        with mock.patch.object(calculus, "_CSV_BLOCK_ROWS", block_rows):
            blocks = list(calculus._csv_blocks(lead, values))
        assert "".join(blocks) == reference_csv_rows(itertools.product(*lead), values)
        assert len(blocks) == -(-len(values) // block_rows)
        assert all(0 < b.count("\n") <= block_rows for b in blocks)

    @given(st.lists(st.sampled_from(SPECIAL_DOUBLES), min_size=1, max_size=40),
           st.integers(1, 4))
    @example([0.0, -0.0, -0.0, 0.0], 2)
    def test_signed_zero_and_nan_text(self, cells, width):
        values = np.resize(np.array(cells), (-(-len(cells) // width), width))
        lead = [[str(r) for r in range(values.shape[0])]]
        text = "".join(calculus._csv_blocks(lead, values))
        assert text == reference_csv_rows(itertools.product(*lead), values)

    def test_three_factor_lead_in_c_order(self):
        lead = text_lead([2, 3, 2])
        values = np.arange(24.0).reshape(12, 2) - 5.5
        with mock.patch.object(calculus, "_CSV_BLOCK_ROWS", 5):
            blocks = list(calculus._csv_blocks(lead, values))
        assert [b.count("\n") for b in blocks] == [5, 5, 2]
        lines = "".join(blocks).splitlines()
        assert lines[0] == "c0_0,c1_0,c2_0,-5.5,-4.5"
        assert lines[1] == "c0_0,c1_0,c2_1,-3.5,-2.5"  # the last factor varies fastest
        assert lines[2] == "c0_0,c1_1,c2_0,-1.5,-0.5"
        assert lines[6] == "c0_1,c1_0,c2_0,6.5,7.5"
        assert lines[11] == "c0_1,c1_2,c2_1,16.5,17.5"

    def test_zero_length_factor_writes_nothing(self):
        assert list(calculus._csv_blocks(text_lead([3, 0, 2]), np.empty((0, 2)))) == []

    def test_empty_lead_writes_cells_only(self):
        assert list(calculus._csv_blocks([], np.array([[-0.0, 0.1, 2.0]]))) == ["-0.0,0.1,2.0\n"]

    @pytest.mark.parametrize("sizes,rows", [([2, 3], 5), ([2, 3], 7), ([], 2), ([0], 1),
                                            ([4], 0)])
    def test_lead_product_must_match_row_count(self, sizes, rows):
        with pytest.raises(InvalidArgumentError):
            next(calculus._csv_blocks(text_lead(sizes), np.zeros((rows, 1))))

    def test_grid_coordinates_are_the_axis_nodes_in_c_order(self):
        grid = calculus.make_spatial_grid([(-1.0, 1.0), (0.0, 0.3)], [3, 4])
        values = np.arange(12.0).reshape(3, 4) * -0.1
        text = calculus.grid_field_to_csv(grid, values)
        coords = [tuple(repr(float(x)) for x in node) for node in grid.points()]
        expected = reference_csv_rows(coords, values.reshape(-1, 1))
        assert text == "x0,x1,value\n" + expected
