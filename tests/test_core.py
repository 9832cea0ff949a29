import hashlib
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from straightflow import core
from straightflow.errors import (
    InvalidArgumentError,
    InvalidCouplingError,
    NonFiniteDataError,
)

from conftest import gauss1


def spec_of(coupling, latent=False):
    """The affine process over ``coupling``, with the bridge latent if asked."""
    return core.ProcessSpec("latent" if latent else "affine", coupling, coupling.dim)


class TestTimeNodes:
    def test_two_point(self):
        assert np.array_equal(core.time_nodes(1), [0.0, 1.0])

    def test_uniform_spacing(self):
        assert np.allclose(core.time_nodes(4), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_hundred_steps(self):
        nodes = core.time_nodes(np.int64(100))
        assert nodes.tobytes() == np.linspace(0.0, 1.0, 101).tobytes()
        assert not nodes.flags.writeable

    @pytest.mark.parametrize("steps", [0, -3, 2.0, 2.5, "3", None])
    def test_anything_but_a_positive_integer_rejected(self, steps):
        with pytest.raises(InvalidArgumentError, match="positive integer"):
            core.time_nodes(steps)


class TestCouplingSample:
    def test_deterministic_map_exact(self):
        amap = core.AffineMap(np.array([[2.0]]), np.array([0.0]))
        cpl = core.CouplingSpec("deterministic_map", gauss1(), gauss1(var=4.0), map=amap)
        arr = core.sample_endpoints(spec_of(cpl), 3, seed=7)
        for x0, x1 in zip(arr.x0, arr.x1):
            assert x1 == pytest.approx(2.0 * x0, abs=0.0)

    def test_independent_correlation_near_zero(self):
        cpl = core.CouplingSpec("independent", gauss1(), gauss1())
        arr = core.sample_endpoints(spec_of(cpl), 100_000, seed=5)
        corr = np.corrcoef(arr.x0[:, 0], arr.x1[:, 0])[0, 1]
        assert abs(corr) <= 0.01

    def test_joint_unit_correlation(self):
        cpl = core.gaussian_joint_coupling(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        arr = core.sample_endpoints(spec_of(cpl), 100_000, seed=5)
        corr = np.corrcoef(arr.x0[:, 0], arr.x1[:, 0])[0, 1]
        assert corr == pytest.approx(1.0, abs=0.01)

    def test_non_psd_joint_rejected(self):
        with pytest.raises(InvalidCouplingError):
            core.gaussian_joint_coupling(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_joint_rejected(self, bad):
        # the marginal blocks are finite; only the cross block is not
        with pytest.raises(InvalidCouplingError, match="finite"):
            core.gaussian_joint_coupling(np.zeros(2), np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("build, error", [
        (lambda: core.Gaussian(np.array([np.inf]), [[1.0]]), NonFiniteDataError),
        (lambda: core.GaussianMixture(np.array([0.5, 0.5]), np.array([[0.0], [np.nan]]),
                                      np.ones((2, 1, 1))), NonFiniteDataError),
        (lambda: core.gaussian_joint_coupling(np.array([np.nan, 0.0]), np.eye(2)),
         InvalidCouplingError),
    ], ids=["gaussian", "mixture", "joint"])
    def test_non_finite_mean_rejected(self, build, error):
        with pytest.raises(error, match="mean must be finite"):
            build()

    def test_pushforward_mismatch_rejected(self):
        amap = core.AffineMap(np.array([[2.0]]), np.array([0.0]))
        with pytest.raises(InvalidCouplingError):
            core.CouplingSpec("deterministic_map", gauss1(), gauss1(), map=amap)

    def test_negative_seed_rejected(self):
        cpl = core.CouplingSpec("independent", gauss1(), gauss1())
        with pytest.raises(InvalidArgumentError):
            core.sample_endpoints(spec_of(cpl), 4, seed=-3)


B = core._BLOCK_ROWS


# two 1-D components 8 and 5 standard deviations from 0
MIX1 = core.GaussianMixture(
    np.array([0.3, 0.7]), np.array([[-4.0], [5.0]]), np.array([[[0.25]], [[1.0]]])
)


def _couplings():
    """One coupling per kind, a Gaussian mixture marginal among them."""
    tab0 = core.Empirical(np.linspace(-1.0, 1.0, 7))
    tab1 = core.Empirical(np.linspace(0.0, 3.0, 7) ** 2)
    mix2 = core.GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-1.0, 0.0], [1.0, 2.0]]),
        np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]),
    )
    gauss2 = core.Gaussian(np.zeros(2), np.array([[1.0, 0.3], [0.3, 2.0]]))
    return {
        "independent": core.CouplingSpec("independent", mix2, gauss2),
        "affine_map": core.CouplingSpec(
            "deterministic_map", gauss1(), gauss1(1.0, 4.0),
            map=core.AffineMap(np.array([[2.0]]), np.array([1.0])),
        ),
        "tabulated_map": core.CouplingSpec("deterministic_map", tab0, tab1),
        "gaussian_joint": core.gaussian_joint_coupling(
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([[1.0, 0.2, 0.6, 0.0], [0.2, 1.0, 0.0, 0.5],
                      [0.6, 0.0, 1.0, 0.1], [0.0, 0.5, 0.1, 2.0]]),
        ),
    }


COUPLINGS = _couplings()
# sizes at, beside and across block boundaries, plus any size up to two blocks
_SIZES = st.one_of(
    st.sampled_from([1, B - 1, B, B + 1, 2 * B, 2 * B + 1]), st.integers(1, 2 * B + 1)
)


class TestBlockStreams:
    def test_block_and_aux_streams_pairwise_distinct(self):
        # a plain tuple key (seed, 0) would replay default_rng(seed): numpy
        # pads tuple entropy with zeros
        for seed in (0, 5, 2**40):
            firsts = [core._block_rng(seed, 0).random(), core._block_rng(seed, 1).random(),
                      np.random.default_rng(seed).random()]
            firsts += [core.aux_rng(seed, tag).random() for tag in range(6)]
            assert len(set(firsts)) == len(firsts)

    @given(kind=st.sampled_from(sorted(COUPLINGS)), n1=_SIZES, n2=_SIZES,
           seed=st.integers(0, 2**32), latent=st.booleans())
    def test_prefix_equals_smaller_draw(self, kind, n1, n2, seed, latent):
        assume(n1 < n2)
        small = core.sample_endpoints(spec_of(COUPLINGS[kind], latent), n1, seed)
        big = core.sample_endpoints(spec_of(COUPLINGS[kind], latent), n2, seed)
        assert np.array_equal(small.x0, big.x0[:n1])
        assert np.array_equal(small.x1, big.x1[:n1])
        if latent:
            assert np.array_equal(small.z, big.z[:n1])

    @given(kind=st.sampled_from(sorted(COUPLINGS)), n=_SIZES, seed=st.integers(0, 2**32))
    def test_endpoints_independent_of_latent(self, kind, n, seed):
        plain = core.sample_endpoints(spec_of(COUPLINGS[kind]), n, seed)
        with_z = core.sample_endpoints(spec_of(COUPLINGS[kind], True), n, seed)
        assert plain.z is None and with_z.z.shape == with_z.x0.shape
        assert np.array_equal(plain.x0, with_z.x0)
        assert np.array_equal(plain.x1, with_z.x1)

    def test_mixture_frequencies_and_moments_within_four_se(self):
        n = 40_000
        arr = core.sample_endpoints(spec_of(core.CouplingSpec("independent", MIX1, MIX1)), n, seed=21)
        mean, cov = MIX1.moments()
        w = MIX1.weights[0]
        for x in (arr.x0[:, 0], arr.x1[:, 0]):
            assert abs(np.mean(x < 0.0) - w) <= 4.0 * np.sqrt(w * (1 - w) / n)
            assert abs(x.mean() - mean[0]) <= 4.0 * np.sqrt(cov[0, 0] / n)
            dev2 = (x - x.mean()) ** 2
            assert abs(x.var() - cov[0, 0]) <= 4.0 * dev2.std() / np.sqrt(n)

    def test_layout_guard(self):
        # Changing which numbers land in which row is a new stream layout:
        # bump RNG_LAYOUT and these digests together.  1-D marginals and a
        # diagonal joint covariance keep every product exact, so the digests
        # do not depend on the BLAS build.
        assert core.RNG_LAYOUT == 2
        cpls = {
            "independent": core.CouplingSpec("independent", MIX1, gauss1(0.5, 2.0)),
            "affine_map": COUPLINGS["affine_map"],
            "tabulated_map": COUPLINGS["tabulated_map"],
            "gaussian_joint": core.gaussian_joint_coupling(
                np.array([0.0, 2.0]), np.diag([1.0, 4.0])
            ),
        }
        digests = {}
        for kind, cpl in cpls.items():
            arr = core.sample_endpoints(spec_of(cpl, True), 5, seed=0)
            digests[kind] = hashlib.sha256(
                arr.x0.tobytes() + arr.x1.tobytes() + arr.z.tobytes()
            ).hexdigest()
        assert digests == {
            "independent": "763547d63b332e5ad5cf324f1f0c51fa86ba6e221c2ed0fa49f2764404bf145f",
            "affine_map": "dac264184b9177c7a8b1a59d05e9acf49bba0f54ee340e9847d732046b1785e1",
            "tabulated_map": "7d25d6a5a6a7da90e5db160c5aed028d450973c3f94f21d5b068ea3b54feb8bb",
            "gaussian_joint": "fcfe62ba6087fa679a7b12f6fadad3eedfdb5944c181d875a7b3f199707400c7",
        }


def path_states(spec, n, steps, seed):
    """Positions, velocities and accelerations of n sampled paths at the
    ``steps + 1`` time nodes, each (n, K, d): the payload of ``ensemble.sflw``."""
    return core.slice_state(spec, core.sample_endpoints(spec, n, seed), core.time_nodes(steps))


class TestSamplePaths:
    def test_affine_acceleration_identically_zero(self, affine_indep_spec):
        _, _, acc = path_states(affine_indep_spec, 200, 7, seed=1)
        assert np.all(acc == 0.0)

    def test_trig_acceleration_is_scaled_position(self, trig_indep_spec):
        pos, _, acc = path_states(trig_indep_spec, 100, 9, seed=2)
        expected = -(np.pi**2 / 4) * pos
        assert np.allclose(acc, expected, atol=1e-12)

    def test_tabulated_map_single_point(self):
        # tabulated deterministic pairing: x0=1 always maps to x1=2
        cpl = core.CouplingSpec(
            "deterministic_map", core.Empirical([[1.0]]), core.Empirical([[2.0]])
        )
        spec = core.ProcessSpec("affine", cpl, 1)
        pos, vel, _ = path_states(spec, 5, 2, seed=0)
        assert np.allclose(pos[:, 1, 0], 1.5)
        assert np.allclose(vel[:, 1, 0], 1.0)

    def test_endpoint_marginals_within_four_se(self, affine_ot_spec):
        n = 10_000
        pos, _, _ = path_states(affine_ot_spec, n, 2, seed=3)
        x0 = pos[:, 0, 0]
        x1 = pos[:, -1, 0]
        assert abs(x0.mean()) <= 4.0 / np.sqrt(n)
        assert abs(x0.var(ddof=1) - 1.0) <= 4.0 * np.sqrt(2.0 / n)
        assert abs(x1.mean() - 2.0) <= 4.0 * 2.0 / np.sqrt(n)
        assert abs(x1.var(ddof=1) - 4.0) <= 4.0 * 4.0 * np.sqrt(2.0 / n)

    def test_velocities_match_position_differences(self, trig_indep_spec):
        # central difference of positions reproduces stored velocities to O(step^2)
        def max_err(steps):
            pos, vel, _ = path_states(trig_indep_spec, 50, steps, seed=4)
            fd = (pos[:, 2:, :] - pos[:, :-2, :]) / (2 / steps)
            return np.abs(fd - vel[:, 1:-1, :]).max()

        coarse, fine = max_err(10), max_err(20)
        assert coarse / fine == pytest.approx(4.0, rel=0.3)

    def test_bit_identical_reruns(self, affine_indep_spec):
        a = path_states(affine_indep_spec, 300, 5, seed=9)
        b = path_states(affine_indep_spec, 300, 5, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_path_streams_are_prefix_stable(self, affine_indep_spec):
        small, _, _ = path_states(affine_indep_spec, 10, 4, seed=9)
        big, _, _ = path_states(affine_indep_spec, 20, 4, seed=9)
        assert np.array_equal(small, big[:10])

    def test_latent_slice_values(self, latent_spec):
        pos, vel, _ = path_states(latent_spec, 50, 4, seed=6)
        # gamma(0) = gamma(1) = 0: endpoint positions carry no latent term
        arr = core.sample_endpoints(latent_spec, 50, seed=6)
        assert np.allclose(pos[:, 0, :], arr.x0)
        assert np.allclose(pos[:, -1, :], arr.x1)
        # interior velocity includes the latent derivative term
        t = 0.25
        gd = (1 - 2 * t) / (2 * np.sqrt(t * (1 - t)))
        expect = arr.x1 - arr.x0 + gd * arr.z
        assert np.allclose(vel[:, 1, :], expect, atol=1e-12)

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(["affine", "trig", "latent"]),
        n=st.integers(1, 30),
        steps=st.integers(1, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_node_slice_equals_path_column(self, kind, n, steps, d, seed):
        # the harnesses and the kernel flow oracle slice one node at a time;
        # each node must carry the bits of the ensemble column, latent
        # non-finite edges (t = 0, 1) included
        cpl = core.CouplingSpec("independent", core.Gaussian(np.zeros(d), np.eye(d)),
                                core.Gaussian(np.ones(d), 4.0 * np.eye(d)))
        spec = core.ProcessSpec(kind, cpl, d)
        endpoints = core.sample_endpoints(spec, n, seed)
        nodes = core.time_nodes(steps)
        columns = core.slice_state(spec, endpoints, nodes)
        for k, t in enumerate(nodes):
            for column, node in zip(columns, core.slice_state(spec, endpoints, t)):
                assert node.shape == (n, d)
                assert np.ascontiguousarray(column[:, k]).tobytes() == node.tobytes()


class TestCoefficients:
    @settings(max_examples=40)
    @given(
        family=st.sampled_from(list(core.COEFFICIENTS)),
        t=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=8),
    )
    def test_family_contract(self, family, t):
        # alpha(0) = 1, alpha(1) = 0, beta(0) = 0, beta(1) = 1, gamma(0) = gamma(1) = 0;
        # cos(pi/2) rounds to 6.1e-17, so trig's alpha(1) holds to one ulp of 1
        for end, want in ((0.0, (1.0, 0.0, 0.0)), (1.0, (0.0, 1.0, 0.0))):
            values = core.coefficient_values(family, end)
            got = (values[0], values[3], values[6])
            np.testing.assert_allclose(got, want, rtol=0, atol=np.finfo(float).eps)
        # first and second derivatives against central differences
        tk, h = np.array(t), 1e-5
        values = core.coefficient_values(family, tk)
        lo, hi = (core.coefficient_values(family, tk + s) for s in (-h, h))
        for k in (0, 3, 6):
            for order in (1, 2):
                diff = (hi[k + order - 1] - lo[k + order - 1]) / (2 * h)
                exact = values[k + order]
                assert np.all(np.abs(exact - diff) <= 1e-6 * np.maximum(np.abs(exact), 1.0))
        # slice_state evaluates a vector of times, the Gaussian oracle one scalar
        nodes = np.concatenate([[0.0, 1.0], tk])
        vector = np.stack(core.coefficient_values(family, nodes))
        for j, tj in enumerate(nodes):
            scalar = np.array(core.coefficient_values(family, float(tj)))
            assert scalar.tobytes() == vector[:, j].tobytes()

    def test_unknown_family_refused(self):
        cpl = core.CouplingSpec("independent", gauss1(), gauss1())
        with pytest.raises(InvalidArgumentError):
            core.coefficient_values("cubic", 0.5)
        with pytest.raises(InvalidArgumentError):
            core.ProcessSpec("cubic", cpl, 1)


def write_ensemble(spec, n, steps, seed, path):
    """``simulate``'s file for n sampled paths of ``spec`` through ``steps``
    time steps."""
    core.save_ensemble(spec, path, core.sample_endpoints(spec, n, seed), steps)


def whole_layout(spec, endpoints, nodes) -> list:
    """The header and the three payload parts of ``ensemble.sflw``, built in
    memory from the whole grid's slice."""
    states = core.slice_state(spec, endpoints, nodes)
    n, k, d = states[0].shape
    return [b"SFLW1" + struct.pack("<QQQ", n, k, d)] + [
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in states]


class TestEnsembleFile:
    def test_roundtrip(self, tmp_path, affine_indep_spec):
        ens = path_states(affine_indep_spec, 64, 3, seed=13)
        path = tmp_path / "e.sflw"
        write_ensemble(affine_indep_spec, 64, 3, 13, path)
        loaded = core.load_ensemble(path)
        assert len(loaded) == 3
        for got, want in zip(loaded, ens):
            assert np.array_equal(got, want)
        assert loaded[0].shape[1] == 4

    def test_header_layout(self, tmp_path, affine_indep_spec):
        path = tmp_path / "e.sflw"
        write_ensemble(affine_indep_spec, 7, 2, 13, path)
        raw = path.read_bytes()
        assert raw[:5] == b"SFLW1"
        dims = np.frombuffer(raw[5:29], dtype="<u8")
        assert tuple(dims) == (7, 3, 1)
        assert len(raw) == 29 + 3 * 7 * 3 * 1 * 8

    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(["affine", "trig", "latent"]),
        steps=st.integers(1, 12),
        d=st.integers(1, 3),
        rows=st.integers(2, 6),
        slack=st.floats(0.0, 1.0, exclude_max=True),
        size=st.sampled_from(["one", "block - 1", "block", "block + 1", "several"]),
        blocks=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        non_finite=st.booleans(),
    )
    def test_roundtrip_property(self, kind, steps, d, rows, slack, size, blocks, seed,
                                non_finite):
        # the streamed file is the whole grid's layout byte for byte, and
        # every bit of it comes back, with K = steps + 1; the block holds
        # ``rows`` rows, whatever part of a row's bytes the budget has left over
        k = steps + 1
        budget = 24 * k * d * rows + int(slack * 24 * k * d)
        n = {"one": 1, "block - 1": rows - 1, "block": rows, "block + 1": rows + 1,
             "several": blocks * rows + seed % rows}[size]
        rng = np.random.default_rng(seed)
        parts = [rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300)
                 for _ in range(3 if kind == "latent" else 2)]
        if non_finite:
            # into one array only: a NaN + NaN sum may return either NaN, and
            # numpy's vector body and scalar tail differ in which, so with two
            # non-finite arrays the whole grid's bits would hang on the row count
            arr = parts[rng.integers(len(parts))]
            arr.flat[rng.integers(0, arr.size, size=3)] = [np.inf, -np.inf, np.nan]
        endpoints = core.EndpointArrays(*parts[:2], parts[2] if kind == "latent" else None, seed)
        cpl = core.CouplingSpec("independent", core.Gaussian(np.zeros(d), np.eye(d)),
                                core.Gaussian(np.zeros(d), np.eye(d)))
        spec = core.ProcessSpec(kind, cpl, d)
        with tempfile.TemporaryDirectory() as tmp, np.errstate(invalid="ignore"), \
                mock.patch.object(core, "_ENSEMBLE_BLOCK_BYTES", budget):
            path = os.path.join(tmp, "e.sflw")
            core.save_ensemble(spec, path, endpoints, steps)
            raw = Path(path).read_bytes()
            loaded = core.load_ensemble(path)
            want = whole_layout(spec, endpoints, core.time_nodes(steps))
        assert raw == b"".join(want)
        assert len(loaded) == 3
        for got, part in zip(loaded, want[1:]):
            assert got.dtype == float and got.shape == (n, k, d)
            assert got.tobytes() == part

    def test_writer_memory_bounded_by_its_block(self, tmp_path, latent_spec):
        # a file of at least 16 blocks is written holding under 1/8 of it:
        # one block's slice and its temporaries, never the whole grid's
        spec, k, d = latent_spec, 11, latent_spec.dim
        n = 17 * core._ENSEMBLE_BLOCK_BYTES // (24 * k * d)
        endpoints = core.sample_endpoints(spec, n, seed=5)
        nodes = core.time_nodes(k - 1)
        path = tmp_path / "big.sflw"
        tracemalloc.start()
        try:
            core.save_ensemble(spec, path, endpoints, k - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 16 * core._ENSEMBLE_BLOCK_BYTES
        assert peak < size / 8
        assert path.read_bytes() == b"".join(whole_layout(spec, endpoints, nodes))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sflw"
        path.write_bytes(b"NOPE!" + b"\0" * 64)
        with pytest.raises(InvalidArgumentError):
            core.load_ensemble(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.sflw"
        path.write_bytes(b"SFLW1" + np.array([7, 3], dtype="<u8").tobytes())
        with pytest.raises(InvalidArgumentError, match="header"):
            core.load_ensemble(path)

    def test_truncated_payload_rejected(self, tmp_path, affine_indep_spec):
        path = tmp_path / "e.sflw"
        write_ensemble(affine_indep_spec, 7, 2, 13, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidArgumentError, match="payload"):
            core.load_ensemble(path)

    def test_oversized_header_rejected(self, tmp_path):
        # sizes no file could hold are refused before any payload is read
        path = tmp_path / "huge.sflw"
        path.write_bytes(b"SFLW1" + np.array([2**62, 3, 2], dtype="<u8").tobytes() + b"\0" * 48)
        with pytest.raises(InvalidArgumentError, match="payload"):
            core.load_ensemble(path)

    def test_trailing_bytes_rejected(self, tmp_path, affine_indep_spec):
        path = tmp_path / "e.sflw"
        write_ensemble(affine_indep_spec, 7, 2, 13, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(InvalidArgumentError, match="payload"):
            core.load_ensemble(path)

    def test_latent_roundtrip_preserves_infinite_edges(self, tmp_path, latent_spec):
        # bridge derivatives diverge at the endpoints; the file format must
        # carry those values through unchanged
        ens = path_states(latent_spec, 16, 4, seed=14)
        assert not np.all(np.isfinite(ens[1][:, 0, :]))
        path = tmp_path / "latent.sflw"
        write_ensemble(latent_spec, 16, 4, 14, path)
        loaded = core.load_ensemble(path)
        assert np.array_equal(loaded[1], ens[1])
