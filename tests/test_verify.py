import json

import numpy as np
import pytest

from straightflow import cli, core, verify
from straightflow.errors import DegenerateDataError, InvalidArgumentError, NonFiniteDataError

from conftest import head

PI2_4 = np.pi**2 / 4


class TestTrPiMoment:
    def test_non_finite_slice_refused(self):
        X = np.random.default_rng(0).standard_normal((100, 2))
        X[3, 1] = np.nan
        with pytest.raises(NonFiniteDataError):
            verify.tr_pi_moment(X, np.zeros_like(X), core.aux_rng(1, 2))

    def test_zero_variance_slice_refused(self):
        X = np.ones((100, 2))
        with pytest.raises(DegenerateDataError):
            verify.tr_pi_moment(X, np.zeros_like(X), core.aux_rng(1, 2))

    def test_gate_radius_holds_the_kernel_volume(self):
        # 1.2533 h in 1-D, sqrt(2) h in 2-D, and in 3-D the ball of (2 pi)^1.5 h^3
        assert verify._count_radius(1.0, 1) == pytest.approx(np.sqrt(np.pi / 2))
        assert verify._count_radius(2.0, 2) == pytest.approx(2.0 * np.sqrt(2.0))
        r = verify._count_radius(0.5, 3)
        assert 4 / 3 * np.pi * r**3 == pytest.approx((2 * np.pi) ** 1.5 * 0.5**3)


class TestAffineStraightnessCheck:
    def test_ot_coupling_consistent(self, affine_ot_spec):
        report = verify.affine_straightness_check(
            affine_ot_spec, core.sample_endpoints(affine_ot_spec, 100_000, 21)
        )
        assert report.verdict == "consistent"
        traces = [v for k, v in report.metrics.items() if k.startswith("tr_pi@")]
        assert max(traces) <= 0.02
        assert report.metrics["chord_dev_max"] <= 1e-6
        assert report.metrics["one_step_max"] <= 1e-6

    def test_independent_coupling_violated(self, affine_indep_spec):
        report = verify.affine_straightness_check(
            affine_indep_spec, core.sample_endpoints(affine_indep_spec, 100_000, 22)
        )
        assert report.verdict == "violated"
        assert report.metrics["tr_pi@0.5"] == pytest.approx(2.0, rel=0.1)
        # the trace indicator fails by at least an order of magnitude
        assert report.metrics["tr_pi@0.5"] >= 10 * report.thresholds["tr_pi@0.5"]

    def test_unit_correlation_joint_consistent(self):
        cpl = core.gaussian_joint_coupling(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        spec = core.ProcessSpec(core.affine_alpha(), core.affine_beta(), cpl, 1)
        report = verify.affine_straightness_check(spec, core.sample_endpoints(spec, 20_000, 23))
        assert report.verdict == "consistent"
        traces = [abs(v) for k, v in report.metrics.items() if k.startswith("tr_pi@")]
        assert max(traces) <= 1e-10
        assert report.metrics["chord_dev_max"] <= 1e-9

    def test_small_sample_inconclusive(self, affine_indep_spec):
        report = verify.affine_straightness_check(
            affine_indep_spec, core.sample_endpoints(affine_indep_spec, 50, 24)
        )
        assert report.verdict == "inconclusive"

    def test_trig_spec_rejected(self, trig_indep_spec):
        with pytest.raises(InvalidArgumentError):
            verify.affine_straightness_check(
                trig_indep_spec, core.sample_endpoints(trig_indep_spec, 100, 1)
            )


GRID3 = core.make_time_grid(2)  # nodes {0, 1/2, 1}; t_index=1 is t = 1/2


class TestGeometricReport:
    def test_trig_independent_identity_holds(self, trig_indep_spec, ep_trig_indep_200k):
        report = verify.geometric_report(
            trig_indep_spec, head(ep_trig_indep_200k, 100_000), GRID3, t_index=1
        )
        assert report.metrics["radial_acceleration"] == pytest.approx(-PI2_4, rel=0.02)
        assert abs(report.metrics["identity_gap"]) <= 3 * report.metrics["identity_gap_se"]
        assert report.metrics["ineq_radial_margin"] >= 0
        assert report.metrics["ineq_dtt_margin"] >= 0
        assert report.verdict == "consistent"

    def test_affine_deterministic_all_zero(self, affine_det2x_spec):
        ens = core.sample_endpoints(affine_det2x_spec, 50_000, 31)
        report = verify.geometric_report(affine_det2x_spec, ens, GRID3, t_index=1)
        assert abs(report.metrics["radial_acceleration"]) <= 1e-12
        assert abs(report.metrics["identity_gap"]) <= max(
            3 * report.metrics["identity_gap_se"], 1e-6
        )
        assert report.verdict == "consistent"

    def test_trig_deterministic_violates_balance_law(self, trig_det_identity_spec):
        ens = core.sample_endpoints(trig_det_identity_spec, 100_000, 32)
        report = verify.geometric_report(trig_det_identity_spec, ens, GRID3, t_index=1)
        # Var X_t = (cos + sin)^2 = 2 at t = 1/2
        assert report.metrics["radial_acceleration"] == pytest.approx(-2 * PI2_4, rel=0.05)
        assert abs(report.metrics["neg_tr_pi"]) <= 0.05
        assert report.verdict == "violated"

    def test_small_sample_inconclusive(self, trig_indep_spec):
        report = verify.geometric_report(
            trig_indep_spec, core.sample_endpoints(trig_indep_spec, 60, 33), GRID3, t_index=1
        )
        assert report.verdict == "inconclusive"


GRID11 = core.make_time_grid(10)


class TestDeterminismDetector:
    def test_deterministic_map_detected(self, affine_det2x_spec):
        report = verify.determinism_detector(
            affine_det2x_spec, core.sample_endpoints(affine_det2x_spec, 40_000, 41), GRID11
        )
        assert report.verdict == "consistent"
        assert report.metrics["ratio"] <= 0.05

    def test_independent_coupling_matches_own_control(self, affine_indep_spec):
        report = verify.determinism_detector(
            affine_indep_spec, core.sample_endpoints(affine_indep_spec, 40_000, 42), GRID11
        )
        assert report.verdict == "violated"
        assert report.metrics["ratio"] == pytest.approx(1.0, abs=0.35)

    def test_latent_interpolant_not_deterministic(self, latent_spec):
        report = verify.determinism_detector(
            latent_spec, core.sample_endpoints(latent_spec, 30_000, 43), GRID11
        )
        assert report.verdict == "violated"
        # fails by at least 10x the calibrated ratio threshold
        assert report.metrics["ratio"] >= 10 * report.thresholds["ratio"]


class TestTheoremReportSerialization:
    def test_json_round_trip(self, tmp_path):
        # T(x) = 2x between N(0,1) and N(0,4), written by the CLI's one JSON writer
        gauss = lambda var: {"family": "gaussian", "mean": [0.0], "cov": [[var]]}
        config = {
            "process": {"coefficients": "affine", "dim": 1, "coupling": {
                "kind": "deterministic_map", "mu0": gauss(1.0), "mu1": gauss(4.0),
                "map": {"A": [[2.0]], "b": [0.0]}}},
            "n": 5_000, "seed": 51, "time_steps": 4, "output_dir": str(tmp_path / "out"),
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        cli.main(["verify", "--config", str(tmp_path / "config.json"), "--theorem", "determinism"])
        text = (tmp_path / "out" / "theorem_determinism.json").read_text()
        payload = json.loads(text)
        assert set(payload) == {"name", "inputs", "metrics", "thresholds", "verdict", "notes"}
        assert payload["verdict"] in ("consistent", "violated", "inconclusive")
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
