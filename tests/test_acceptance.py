"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import json

import numpy as np
import pytest

from straightflow import calculus, cli, core, estimate, flow, gaussian, verify

from conftest import energy_distance, gauss1, head, oracle_fields_dt

PI2_4 = np.pi**2 / 4


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {num}: {desc}  {detail}")
    assert ok, f"acceptance {num} failed: {desc}  {detail}"


def _states(result):
    assert not result.errors
    return result.states


def test_criterion_1_straightness_iff_deterministic(
    affine_ot_spec, affine_indep_spec, ep_affine_indep_200k
):
    # deterministic side, d = 1: OT map N(0,1) -> N(2,4)
    oracle1 = flow.analytic_velocity_oracle(affine_ot_spec)
    pts1 = affine_ot_spec.coupling.mu0.draw(core.aux_rng(100, 0), 100)
    res1 = flow.flow_map(oracle1, pts1, 100, "rk4")
    chord1 = flow.straightness_deviation(_states(res1)).chord_dev.max()
    one1 = flow.one_step_error(oracle1, pts1).max_error

    # deterministic side, d = 2 diagonal case
    mu0 = core.Gaussian(np.zeros(2), np.eye(2))
    mu1 = core.Gaussian(np.array([2.0, -1.0]), np.diag([4.0, 9.0]))
    amap = gaussian.gaussian_ot_map(mu0.mean, mu0.cov, mu1.mean, mu1.cov)
    cpl2 = core.CouplingSpec("deterministic_map", mu0, mu1, map=amap)
    spec2 = core.ProcessSpec("affine", cpl2, 2)
    oracle2 = flow.analytic_velocity_oracle(spec2)
    pts2 = mu0.draw(core.aux_rng(100, 1), 100)
    res2 = flow.flow_map(oracle2, pts2, 100, "rk4")
    chord2 = flow.straightness_deviation(_states(res2)).chord_dev.max()
    one2 = flow.one_step_error(oracle2, pts2).max_error

    # stochastic side: independent coupling at N = 1e5
    ens = head(ep_affine_indep_200k, 100_000)
    X, V, _ = core.slice_state(affine_indep_spec, ens, 0.5)
    tr_pi = verify.tr_pi_moment(X, V, core.aux_rng(ens.seed, 900)).value
    g_ind = core.ProcessSpec("affine", core.CouplingSpec("independent", gauss1(), gauss1()), 1)
    one_ind = flow.one_step_error(
        flow.analytic_velocity_oracle(g_ind), np.array([[1.0]])
    ).max_error

    ok = (
        chord1 <= 1e-6
        and one1 <= 1e-6
        and chord2 <= 1e-6
        and one2 <= 1e-6
        and abs(tr_pi - 2.0) <= 0.2
        and one_ind >= 0.1
    )
    _criterion(
        1,
        "straightness iff deterministic coupling",
        ok,
        f"chord d1={chord1:.2e} d2={chord2:.2e} one_step d1={one1:.2e} d2={one2:.2e} "
        f"tr_pi={tr_pi:.4f} one_step_indep={one_ind:.3f}",
    )


def test_criterion_2_balance_positive_instance(trig_indep_spec, ep_trig_indep_200k):
    grid = calculus.make_spatial_grid([(-3.0, 3.0)], 60)
    fields = gaussian.fields_on_grid(trig_indep_spec, 0.5, grid)
    analytic = calculus.balance_residual(grid, fields["rho"], fields["Pi"], fields["a"])

    X, V, A = core.slice_state(trig_indep_spec, ep_trig_indep_200k, 0.5)  # N = 2e5
    est_fields = estimate.fields_on_grid(X, V, A, grid, estimate.KernelConfig())
    estimated = calculus.balance_residual(
        grid, est_fields["rho"], est_fields["Pi"], est_fields["a"], order=2
    )
    ok = analytic.relative <= 1e-3 and estimated.relative <= 0.15
    _criterion(
        2,
        "balance law holds for the trigonometric interpolant (a != 0)",
        ok,
        f"analytic rel={analytic.relative:.2e} estimated rel={estimated.relative:.3f}",
    )


def test_criterion_3_balance_negative_instance(trig_det_identity_spec):
    grid = calculus.make_spatial_grid([(-4.2, 4.2)], 60)
    fields = gaussian.fields_on_grid(trig_det_identity_spec, 0.5, grid)
    rep = calculus.balance_residual(grid, fields["rho"], fields["Pi"], fields["a"])

    oracle = flow.analytic_velocity_oracle(trig_det_identity_spec)
    traj = flow.flow_map(oracle, np.array([[1.0]]), 400, "rk4")
    chord = flow.straightness_deviation(_states(traj)).chord_dev[0]
    target = np.sqrt(2.0) - 1.0
    ok = rep.relative >= 0.5 and abs(chord - target) <= 5e-3
    _criterion(
        3,
        "balance law fails for the trig interpolant with identity coupling",
        ok,
        f"balance rel={rep.relative:.3f} chord={chord:.6f} (target {target:.6f})",
    )


def test_criterion_4_momentum_and_continuity(
    affine_det2x_spec, affine_indep_spec, trig_indep_spec, trig_det_identity_spec
):
    t = 0.3
    details = []
    ok = True
    for name, spec in (
        ("affine_det", affine_det2x_spec),
        ("affine_indep", affine_indep_spec),
        ("trig_indep", trig_indep_spec),
        ("trig_det", trig_det_identity_spec),
    ):
        bounds = gaussian.oracle_box(spec, t)
        span = bounds[0][1] - bounds[0][0]

        def run(h_target):
            n = max(4, round(span / h_target))
            grid = calculus.make_spatial_grid(bounds, n + 1)
            f = oracle_fields_dt(spec, t, grid)
            mom = calculus.momentum_residual(grid, f["rho"], f["v"], f["Sigma"], f["a"],
                                             f["dt_rho_v"])
            cont = calculus.continuity_residual(grid, f["rho"], f["v"], f["dt_rho"])
            return mom, cont

        mom1, cont1 = run(0.1)
        mom2, cont2 = run(0.05)
        mom_ok = mom1.relative <= 1e-3 and mom1.max_abs / max(mom2.max_abs, 1e-300) >= 3.5
        if cont1.max_abs <= 1e-14:  # identically-zero residual: nothing to shrink
            cont_ok = cont1.relative <= 1e-3
        else:
            cont_ok = cont1.relative <= 1e-3 and cont1.max_abs / cont2.max_abs >= 3.5
        ok = ok and mom_ok and cont_ok
        details.append(
            f"{name}: mom rel={mom1.relative:.1e} x{mom1.max_abs / max(mom2.max_abs, 1e-300):.1f} "
            f"cont rel={cont1.relative:.1e}"
        )
    _criterion(4, "momentum and continuity residuals at h=0.1, second-order shrink", ok,
               "; ".join(details))


def test_criterion_5_material_derivative(affine_indep_spec):
    t = 0.5
    grid = calculus.make_spatial_grid([(-2.0, 2.0)], 401)  # h = 0.01
    f = oracle_fields_dt(affine_indep_spec, t, grid)
    out = calculus.material_derivative(grid, f["v"], f["dt_v"])
    x = grid.meshgrid()[0]
    err = np.nanmax(np.abs(out[..., 0] - 4.0 * x))
    rel = err / np.abs(4.0 * x).max()

    cov = np.array([[1.0, 2.0], [2.0, 4.0]])  # deterministic scaling X_t = (1+t) X0
    det_spec = core.ProcessSpec("affine", core.gaussian_joint_coupling(np.zeros(2), cov), 1)
    fd = oracle_fields_dt(det_spec, t, grid)
    out_det = calculus.material_derivative(grid, fd["v"], fd["dt_v"])
    det_abs = np.nanmax(np.abs(out_det))

    ok = rel <= 1e-3 and det_abs <= 1e-6
    _criterion(
        5,
        "grid material derivative matches the analytic oracle",
        ok,
        f"affine_indep rel={rel:.2e} affine_det abs={det_abs:.2e}",
    )


def test_criterion_6_trace_identity(trig_indep_spec, ep_trig_indep_200k):
    ens = head(ep_trig_indep_200k, 100_000)
    report = verify.geometric_report(trig_indep_spec, ens, 2, t_index=1)
    m = report.metrics
    radial_ok = abs(m["radial_acceleration"] + PI2_4) <= 0.02 * PI2_4
    gap_ok = abs(m["identity_gap"]) <= 3.0 * m["identity_gap_se"]
    ineq_ok = m["ineq_radial_margin"] >= 0.0 and m["ineq_dtt_margin"] >= 0.0
    ok = radial_ok and gap_ok and ineq_ok and report.verdict == "consistent"
    _criterion(
        6,
        "trace identity and corollary inequalities for the trig interpolant",
        ok,
        f"E[X.Xdd]={m['radial_acceleration']:.4f} gap={m['identity_gap']:.4f} "
        f"(3se={3 * m['identity_gap_se']:.4f}) margins=({m['ineq_radial_margin']:.3f}, "
        f"{m['ineq_dtt_margin']:.3f})",
    )


def test_criterion_7_estimator_convergence(affine_indep_spec, ep_affine_indep_200k):
    pts = np.linspace(-1.5, 1.5, 9)[:, None]
    v_true = gaussian.velocity_at(affine_indep_spec, 0.5, pts)
    rmses = []
    for n in (1_000, 10_000, 100_000):
        X, V, _ = core.slice_state(affine_indep_spec, head(ep_affine_indep_200k, n), 0.5)
        h = estimate.silverman_bandwidth_from(X)
        v_hat, _ = estimate.nw_regress(X, V, pts, h)
        rmses.append(float(np.sqrt(np.mean(np.sum((v_hat - v_true) ** 2, axis=1)))))
    ok = rmses[0] > rmses[1] > rmses[2] and rmses[0] / rmses[2] >= 2.5
    _criterion(
        7,
        "velocity estimator RMSE decreases over N in {1e3, 1e4, 1e5}",
        ok,
        "rmse=" + ", ".join(f"{r:.4f}" for r in rmses) + f" drop x{rmses[0] / rmses[2]:.1f}",
    )


def test_criterion_8_transport_correctness(affine_ot_spec):
    oracle = flow.analytic_velocity_oracle(affine_ot_spec)
    rng = core.aux_rng(801, 0)
    n = 10_000
    src = affine_ot_spec.coupling.mu0.draw(rng, n)
    res = flow.flow_map(oracle, src, 200, "rk4")
    ends = res.states[res.kept, -1]
    tgt = affine_ot_spec.coupling.mu1.draw(rng, n)
    observed = energy_distance(ends, tgt)
    null = np.array(
        [
            energy_distance(
                affine_ot_spec.coupling.mu1.draw(rng, n),
                affine_ot_spec.coupling.mu1.draw(rng, n),
            )
            for _ in range(20)
        ]
    )
    threshold = float(np.quantile(null, 0.95))
    ok = observed <= threshold
    _criterion(
        8,
        "flow endpoints match the target distribution (energy distance)",
        ok,
        f"observed={observed:.2e} null95={threshold:.2e}",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    out = tmp_path / "out"
    config = {
        "process": {
            "coefficients": "affine",
            "dim": 1,
            "coupling": {
                "kind": "deterministic_map",
                "mu0": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
                "mu1": {"family": "gaussian", "mean": [2.0], "cov": [[4.0]]},
                "map": "ot",
            },
        },
        "n": 5_000,
        "seed": 99,
        "time_steps": 8,
        "flow": {"steps": 20, "n_points": 20},
        "output_dir": str(out),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))

    runs = [
        ["simulate", "--config", str(cfg_path)],
        ["fields", "--config", str(cfg_path), "--source", "oracle"],
        ["fields", "--config", str(cfg_path), "--source", "estimate"],
        ["diagnose", "--config", str(cfg_path)],
        ["verify", "--config", str(cfg_path), "--theorem", "determinism"],
        ["flow", "--config", str(cfg_path)],
        ["sweep", "--config", str(cfg_path), "--param", "n", "--values", "500,1000"],
    ]
    ok = True
    details = []
    for argv in runs:
        code1 = cli.main(argv)
        snapshot = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
        }
        manifest1 = json.loads((out / "manifest.json").read_text())
        code2 = cli.main(argv)
        repeat = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"
        }
        manifest2 = json.loads((out / "manifest.json").read_text())
        manifest1.pop("timestamp")
        manifest2.pop("timestamp")
        same = snapshot == repeat and manifest1 == manifest2 and code1 == code2
        ok = ok and same
        details.append(f"{argv[0]}:{'=' if same else '!'}")
    _criterion(9, "every CLI command is bit-reproducible under a fixed seed", ok,
               " ".join(details))
