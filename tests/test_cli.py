import json
import os
import subprocess
import sys
from unittest import mock

import jsonschema
import numpy as np
import pytest

from straightflow import cli, core, errors, estimate, flow, gaussian


def base_config(out_dir, **overrides):
    data = {
        "process": {
            "coefficients": "affine",
            "dim": 1,
            "coupling": {
                "kind": "independent",
                "mu0": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
                "mu1": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
            },
        },
        "n": 100,
        "seed": 7,
        "output_dir": str(out_dir),
    }
    data.update(overrides)
    return data


def write_config(tmp_path, name="config.json", **overrides):
    out_dir = tmp_path / "out"
    cfg = base_config(out_dir, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path, out_dir


def ot_process():
    return {
        "coefficients": "affine",
        "dim": 1,
        "coupling": {
            "kind": "deterministic_map",
            "mu0": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
            "mu1": {"family": "gaussian", "mean": [2.0], "cov": [[4.0]]},
            "map": "ot",
        },
    }


def trig_process(kind="independent", identity_map=False):
    coupling = {
        "kind": kind,
        "mu0": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
        "mu1": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]},
    }
    if identity_map:
        coupling["map"] = {"A": [[1.0]], "b": [0.0]}
    return {"coefficients": "trig", "dim": 1, "coupling": coupling}


def reference_field_csv(grid, values) -> str:
    """Per-cell reference for ``fields_*.csv``: node coordinates from
    ``grid.points()``, one ``repr(float(c))`` call for every cell."""
    d = grid.dim
    names = {0: ["value"], 1: [f"v{j}" for j in range(d)],
             2: [f"m{i}{j}" for i in range(d) for j in range(d)]}[values.ndim - d]
    lines = [",".join([f"x{i}" for i in range(d)] + names)]
    points = grid.points()
    for xy, val in zip(points, values.reshape(len(points), -1)):
        lines.append(",".join(repr(float(c)) for c in [*xy, *val]))
    return "\n".join(lines) + "\n"


def reference_trajectories_csv(result) -> str:
    """Per-cell reference for ``trajectories.csv``: one row per (point, time
    node) of each point that ``flow_map`` did not fail."""
    _, k, d = result.states.shape
    lines = ["point,t," + ",".join(f"x{i}" for i in range(d))]
    failed = {i for i, _ in result.errors}
    for i, states in enumerate(result.states):
        if i not in failed:
            for t, state in zip(np.linspace(0.0, 1.0, k), states):
                lines.append(",".join([str(i), repr(float(t))] + [repr(float(c)) for c in state]))
    return "\n".join(lines) + "\n"


def ot_process_2d():
    return {
        "coefficients": "affine",
        "dim": 2,
        "coupling": {
            "kind": "deterministic_map",
            "mu0": {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "mu1": {"family": "gaussian", "mean": [2.0, -1.0], "cov": [[4.0, 0.0], [0.0, 9.0]]},
            "map": "ot",
        },
    }


class TestSimulate:
    def test_header_dims(self, tmp_path):
        cfg_path, out = write_config(tmp_path, n=100, time_steps=6)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        raw = (out / "ensemble.sflw").read_bytes()
        assert raw[:5] == b"SFLW1"
        assert tuple(np.frombuffer(raw[5:29], dtype="<u8")) == (100, 7, 1)

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        cli.main(["simulate", "--config", str(cfg_path)])
        first = (out / "ensemble.sflw").read_bytes()
        cli.main(["simulate", "--config", str(cfg_path)])
        assert (out / "ensemble.sflw").read_bytes() == first

    def test_manifest_written_with_hash(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        cli.main(["simulate", "--config", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["ensemble.sflw"]
        assert manifest["seed"] == 7
        assert len(manifest["config_hash"]) == 64
        assert manifest["rng_layout"] == core.RNG_LAYOUT

    def test_failed_write_leaves_no_ensemble(self, tmp_path, monkeypatch):
        def fail_part_way(spec, path, endpoints, steps):
            with open(path, "wb") as fh:
                fh.write(b"SFLW1")
            raise OSError("disk full")

        monkeypatch.setattr(core, "save_ensemble", fail_part_way)
        cfg_path, out = write_config(tmp_path)
        with pytest.raises(OSError):
            cli.main(["simulate", "--config", str(cfg_path)])
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []

    def test_negative_bandwidth_exit_2_names_field(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, bandwidth=-0.5)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert "bandwidth" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, bogus_knob=3)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"process": }')
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err


class TestFields:
    def test_oracle_velocity_zero_at_midtime(self, tmp_path):
        cfg_path, out = write_config(tmp_path, n=50)
        code = cli.main(["fields", "--config", str(cfg_path), "--source", "oracle", "--time", "0.5"])
        assert code == 0
        rows = (out / "fields_v.csv").read_text().strip().split("\n")[1:]
        values = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert np.allclose(values[:, 1], 0.0, atol=1e-14)

    def test_oracle_2d_files_match_per_cell_reference(self, tmp_path):
        process = {"coefficients": "trig", "dim": 2, "coupling": {
            "kind": "independent",
            "mu0": {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "mu1": {"family": "gaussian", "mean": [1.0, 0.0], "cov": [[2.0, 0.5], [0.5, 1.0]]},
        }}
        cfg_path, out = write_config(tmp_path, process=process, grid={"nodes_per_axis": 9})
        assert cli.main(["fields", "--config", str(cfg_path), "--source", "oracle",
                         "--time", "0.3"]) == 0
        cfg = cli.load_config(cfg_path)
        spec = cli.build_process_spec(cfg)
        grid = cli._resolve_spatial_grid(cfg, spec, 0.3)
        fields = gaussian.fields_on_grid(spec, 0.3, grid)
        for name in ("rho", "v", "a", "Sigma", "Pi"):
            text = (out / f"fields_{name.lower()}.csv").read_text()
            assert text == reference_field_csv(grid, fields[name]), name

    def test_estimate_tiny_sample_nan_sentinels(self, tmp_path):
        cfg_path, out = write_config(tmp_path, n=10)
        code = cli.main(["fields", "--config", str(cfg_path), "--source", "estimate"])
        assert code == 0
        text = (out / "fields_v.csv").read_text()
        assert "nan" in text

    def test_identical_invocations_identical_files(self, tmp_path):
        cfg_path, out = write_config(tmp_path, n=500)
        cli.main(["fields", "--config", str(cfg_path), "--source", "estimate"])
        first = {p.name: p.read_bytes() for p in out.glob("fields_*.csv")}
        cli.main(["fields", "--config", str(cfg_path), "--source", "estimate"])
        second = {p.name: p.read_bytes() for p in out.glob("fields_*.csv")}
        assert first == second

    def test_oracle_for_empirical_coupling_exit_3(self, tmp_path):
        process = {
            "coefficients": "affine",
            "dim": 1,
            "coupling": {
                "kind": "deterministic_map",
                "mu0": {"family": "empirical", "samples": [[0.0], [1.0]]},
                "mu1": {"family": "empirical", "samples": [[0.0], [2.0]]},
            },
        }
        cfg_path, _ = write_config(tmp_path, process=process)
        assert cli.main(["fields", "--config", str(cfg_path), "--source", "oracle"]) == 3


class TestDiagnose:
    def test_trig_independent_balance_holds(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=trig_process())
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["balance"]["relative"] <= 1e-3
        assert report["balance"]["verdict"] == "straight-compatible"

    def test_trig_deterministic_balance_fails(self, tmp_path):
        cfg_path, out = write_config(
            tmp_path, process=trig_process("deterministic_map", identity_map=True)
        )
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["balance"]["relative"] >= 0.5

    def test_affine_deterministic_all_small(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process())
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        for section in ("continuity", "momentum", "balance", "material"):
            assert report[section]["relative"] <= 1e-3, section
        assert (out / "residual_balance.csv").exists()


    def test_estimated_affine_balance_relative_bounded(self, tmp_path):
        # rho a vanishes for affine interpolants; the reference keeps div(rho Pi)
        std2 = {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        process = {"coefficients": "affine", "dim": 2,
                   "coupling": {"kind": "independent", "mu0": std2, "mu1": std2}}
        cfg_path, out = write_config(tmp_path, process=process, n=2000, source="estimate",
                                     grid={"nodes_per_axis": 5})
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        balance = json.loads((out / "diagnostics.json").read_text())["balance"]
        assert np.isfinite(balance["relative"]) and balance["relative"] <= 1.0
        assert balance["verdict"] == "not-straight-compatible"

    @pytest.mark.parametrize("d", [1, 2])
    def test_estimate_far_from_the_origin_reads_as_at_it(self, tmp_path, d):
        # affine independent N(c, 1) -> N(c, 4): the shift moves no relative;
        # far out, linspace rounds the grid's nodes and the kernel's time
        # derivatives cancel terms as large as the samples' spread
        def relatives(c):
            gauss = lambda var: {"family": "gaussian", "mean": [c] * d,
                                 "cov": (var * np.eye(d)).tolist()}
            process = {"coefficients": "affine", "dim": d, "coupling": {
                "kind": "independent", "mu0": gauss(1.0), "mu1": gauss(4.0)}}
            run = tmp_path / repr(c)
            run.mkdir()
            cfg_path, out = write_config(run, process=process, n=5000, seed=3,
                                         source="estimate", grid={"nodes_per_axis": 21})
            assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
            report = json.loads((out / "diagnostics.json").read_text())
            return [report[k]["relative"] for k in ("continuity", "momentum", "balance",
                                                    "material")]

        at_origin = relatives(0.0)
        for c in (1e5, 1e8):
            assert relatives(c) == pytest.approx(at_origin, rel=1e-4), c

    def test_estimate_takes_one_kernel_pass(self, tmp_path):
        # the time derivatives come from the pass at t, not from passes around it
        cfg_path, out = write_config(tmp_path, process=trig_process(), n=4000, source="estimate",
                                     grid={"nodes_per_axis": 12})
        with mock.patch.object(estimate, "nw_regress", wraps=estimate.nw_regress) as engine:
            assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        assert engine.call_count == 1
        report = json.loads((out / "diagnostics.json").read_text())
        assert "h_t" not in report["provenance"]
        for section in ("continuity", "momentum", "material"):
            assert np.isfinite(report[section]["relative"]), section

    @pytest.mark.parametrize("command, argv", [("fields", ["--source", "estimate"]),
                                               ("diagnose", [])])
    def test_estimate_slices_once(self, tmp_path, command, argv):
        # the slice that sizes the grid box is the one the estimator reads
        cfg_path, _ = write_config(tmp_path, n=500, source="estimate")
        with mock.patch.object(core, "slice_state", wraps=core.slice_state) as slicer:
            assert cli.main([command, "--config", str(cfg_path), *argv]) == 0
        assert slicer.call_count == 1

    def test_oracle_builds_the_model_once(self, tmp_path):
        # the fields and their exact time derivatives come from one model at t
        cfg_path, out = write_config(tmp_path, process=trig_process(), grid={"nodes_per_axis": 12})
        with mock.patch.object(gaussian, "_conditional_model",
                               wraps=gaussian._conditional_model) as model:
            assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        assert model.call_count == 1
        assert "h_t" not in json.loads((out / "diagnostics.json").read_text())["provenance"]

    @pytest.mark.parametrize("t", ["0", "1"])
    @pytest.mark.parametrize("process", [trig_process(), ot_process()], ids=["trig", "affine"])
    def test_oracle_at_the_ends_of_time(self, tmp_path, process, t):
        cfg_path, out = write_config(tmp_path, process=process, grid={"nodes_per_axis": 12})
        assert cli.main(["diagnose", "--config", str(cfg_path), "--time", t]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["provenance"]["time"] == float(t)
        for section in ("continuity", "momentum", "balance", "material"):
            assert np.isfinite(report[section]["max_abs"]), section
            assert np.isfinite(report[section]["relative"]), section

    @pytest.mark.parametrize("t", ["0", "1"])
    def test_latent_oracle_at_the_ends_exit_2(self, tmp_path, capsys, t):
        # Cov(dX_t) is infinite where the bridge coefficient is 0
        process = dict(trig_process(), coefficients="latent")
        cfg_path, out = write_config(tmp_path, process=process, grid={"nodes_per_axis": 12})
        assert cli.main(["diagnose", "--config", str(cfg_path), "--time", t]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("argv", [["fields", "--source", "oracle", "--time", "0"],
                                      ["diagnose", "--time", "0"], ["diagnose", "--time", "1"]])
    def test_latent_2d_oracle_at_the_ends_one_stderr_line(self, tmp_path, capsys, argv):
        # in 2-D g'^2 I would put inf * 0 off the diagonal; the refusal comes
        # first, so numpy prints no warning before the config error
        std2 = {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        process = {"coefficients": "latent", "dim": 2,
                   "coupling": {"kind": "independent", "mu0": std2, "mu1": std2}}
        cfg_path, out = write_config(tmp_path, process=process, grid={"nodes_per_axis": 12})
        assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: Cov(dX_t) is infinite") and err.count("\n") == 1
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


class TestTimeFlag:
    @pytest.mark.parametrize("t", ["1.7", "-0.5"])
    @pytest.mark.parametrize("source", ["oracle", "estimate"])
    @pytest.mark.parametrize("command", ["fields", "diagnose"])
    def test_outside_unit_interval_exit_2_before_sampling(self, tmp_path, capsys, command,
                                                          source, t):
        cfg_path, out = write_config(tmp_path, process=trig_process(), source=source)
        with mock.patch.object(core, "sample_endpoints") as sampler:
            assert cli.main([command, "--config", str(cfg_path), "--time", t]) == 2
        assert sampler.call_count == 0
        assert capsys.readouterr().err == f"config error: time {float(t)} lies outside [0, 1]\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []


class TestThreadCount:
    def test_estimate_bytes_independent_of_threads(self, tmp_path):
        # single-column kernel sums (d_t v in diagnose, the 1-D flow oracle)
        # were BLAS reductions that OpenBLAS splits across its threads; the
        # 2-D diagnose takes its fields and time derivatives in one product
        mu1 = {"family": "gaussian", "mean": [0.0], "cov": [[4.0]]}
        process = trig_process()
        process["coupling"]["mu1"] = mu1
        residuals = ("residual_continuity.csv", "residual_momentum.csv", "residual_balance.csv",
                     "residual_material.csv")
        files = {}
        for threads in ("1", "2"):
            (tmp_path / threads / "2d").mkdir(parents=True)
            cfg_path, out = write_config(tmp_path / threads, process=process, n=20_000, seed=3,
                                         source="estimate", flow={"steps": 10, "n_points": 4})
            cfg_2d, out_2d = write_config(tmp_path / threads / "2d", process=ot_process_2d(),
                                          n=10_000, seed=3, source="estimate",
                                          grid={"nodes_per_axis": 16})
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["STRAIGHTFLOW_THREADS"] = threads
            # the child imports the package under test, installed or not
            src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            script = ("import sys; from straightflow import cli; "
                      "sys.exit(cli.main(['diagnose', '--config', sys.argv[1]]) "
                      "or cli.main(['flow', '--config', sys.argv[1]]) "
                      "or cli.main(['diagnose', '--config', sys.argv[2]]))")
            subprocess.run([sys.executable, "-c", script, str(cfg_path), str(cfg_2d)], env=env,
                           check=True, capture_output=True)
            files[threads] = {name: (out / name).read_bytes()
                              for name in residuals + ("trajectories.csv",)}
            files[threads].update({f"2d/{name}": (out_2d / name).read_bytes()
                                   for name in residuals})
        assert files["1"] == files["2"]


class TestVerify:
    def test_ot_coupling_exit_0(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process(), n=20_000)
        assert cli.main(["verify", "--config", str(cfg_path), "--theorem", "affine"]) == 0
        report = json.loads((out / "theorem_affine.json").read_text())
        assert report["verdict"] == "consistent"

    def test_independent_coupling_exit_4(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, n=20_000)
        assert cli.main(["verify", "--config", str(cfg_path), "--theorem", "affine"]) == 4

    def test_tiny_run_exit_5(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, n=50)
        assert cli.main(["verify", "--config", str(cfg_path), "--theorem", "affine"]) == 5

    def test_geometric_report_written(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=trig_process(), n=20_000)
        code = cli.main(["verify", "--config", str(cfg_path), "--theorem", "geometric"])
        assert code == 0
        report = json.loads((out / "theorem_geometric.json").read_text())
        assert report["name"] == "geometric_constraints"

    def test_determinism_exit_codes(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, process=ot_process(), n=20_000)
        assert cli.main(["verify", "--config", str(cfg_path), "--theorem", "determinism"]) == 0
        cfg_path2, _ = write_config(tmp_path, name="c2.json", n=20_000)
        assert cli.main(["verify", "--config", str(cfg_path2), "--theorem", "determinism"]) == 4

    @pytest.mark.parametrize("t,steps,node", [(0.5, 10, 5), (0.3, 10, 3), (1.0, 10, 10),
                                              (0.0, 1, 0), (1 / 3 + 5e-10, 3, 1)])
    def test_time_resolves_to_its_node(self, t, steps, node):
        assert cli._node_index(t, steps) == node

    @pytest.mark.parametrize("t,steps", [(0.55, 10), (0.5, 3), (1 / 3 + 2e-9, 3)])
    def test_time_off_the_grid_exit_2(self, tmp_path, capsys, t, steps):
        cfg_path, out = write_config(tmp_path, process=trig_process(), time=t, time_steps=steps)
        with mock.patch.object(core, "sample_endpoints") as sampler:
            assert cli.main(["verify", "--config", str(cfg_path), "--theorem", "geometric"]) == 2
        assert sampler.call_count == 0
        assert capsys.readouterr().err == f"config error: time {t} is not a grid node\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []

    @pytest.mark.parametrize("theorem", ["affine", "geometric", "determinism"])
    def test_density_floor_reaches_harness(self, tmp_path, theorem):
        # no kernel effective sample size reaches 1e12, so every point is low-density
        cfg_path, out = write_config(tmp_path, process=ot_process(), n=2000,
                                     density_floor=1e12)
        assert cli.main(["verify", "--config", str(cfg_path), "--theorem", theorem]) == 5
        report = json.loads((out / f"theorem_{theorem}.json").read_text())
        assert report["verdict"] == "inconclusive"
        assert report["metrics"]["low_density_fraction"] == 1.0

    def test_affine_metric_keys(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process(), n=2000,
                                     time_nodes=[0.25, 0.75])
        cli.main(["verify", "--config", str(cfg_path), "--theorem", "affine"])
        report = json.loads((out / "theorem_affine.json").read_text())
        assert set(report["metrics"]) == {
            "tr_pi@0.25", "tr_pi@0.75", "tr_pi_control@0.25", "tr_pi_control@0.75",
            "chord_dev_max", "second_diff_max", "one_step_max", "low_density_fraction",
        }


class TestFlow:
    def test_straight_flow_one_step_exact(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process(), n=50)
        code = cli.main(
            ["flow", "--config", str(cfg_path), "--scheme", "euler", "--steps", "1"]
        )
        assert code == 0
        summary = json.loads((out / "straightness.json").read_text())
        assert summary["one_step"]["max"] <= 1e-6
        assert summary["one_step"]["reference_steps_used"] == 50
        assert summary["one_step"]["reference_gap"] <= 1e-9

    def test_reference_below_first_run_reports_no_gap(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process(), n=50,
                                     flow={"steps": 4, "reference_steps": 10, "n_points": 3})
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        one_step = json.loads((out / "straightness.json").read_text())["one_step"]
        assert set(one_step) == {"max", "rms", "reference_steps_used", "reference_gap"}
        assert one_step["reference_steps_used"] == 10 and one_step["reference_gap"] is None

    def test_curved_flow_gap_at_unit_start(self, tmp_path):
        pts = tmp_path / "points.csv"
        pts.write_text("1.0\n")
        cfg_path, out = write_config(tmp_path, n=50)
        code = cli.main(
            ["flow", "--config", str(cfg_path), "--points", str(pts), "--scheme", "rk4",
             "--steps", "100"]
        )
        assert code == 0
        summary = json.loads((out / "straightness.json").read_text())
        assert summary["one_step"]["max"] >= 0.1
        lines = (out / "trajectories.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 101

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("content", [None, "", "0.5\nabc\n", "0.5,1.0\n2.0\n", "nan\n",
                                         "0.5,1.0\n"],
                             ids=["missing", "empty", "non_numeric", "ragged", "nan", "wrong_dim"])
    def test_bad_points_file_exit_2(self, tmp_path, capsys, content):
        starts = tmp_path / "starts.csv"
        if content is not None:
            starts.write_text(content)
        cfg_path, out = write_config(tmp_path, n=50)
        assert cli.main(["flow", "--config", str(cfg_path), "--points", str(starts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "points" in err.replace(str(starts), "")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["class"] == "ConfigError" and manifest["outputs"] == []

    @pytest.mark.parametrize("source", ["oracle", "estimate"])
    def test_latent_flow_from_t0(self, tmp_path, capsys, source):
        # the bridge's g' is infinite at t = 0 and 1: the Gaussian oracle takes
        # the velocity's limit there, and the kernel oracle refuses the sampled
        # slice, whose velocities are infinite
        process = dict(base_config(tmp_path)["process"], coefficients="latent")
        cfg_path, out = write_config(tmp_path, process=process, n=300, source=source,
                                     flow={"steps": 20, "n_points": 5})
        code = cli.main(["flow", "--config", str(cfg_path)])
        if source == "oracle":
            assert code == 0
            summary = json.loads((out / "straightness.json").read_text())
            assert summary["n_failed"] == 0
            assert all(np.isfinite(p["one_step_error"]) for p in summary["points"])
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "not finite" in err
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["error"]["class"] == "NonFiniteDataError"

    def test_zero_steps_exit_2(self, tmp_path):
        # a flag value of 0 is used, not replaced by the config's steps
        cfg_path, out = write_config(tmp_path, process=ot_process(), flow={"steps": 5})
        assert cli.main(["flow", "--config", str(cfg_path), "--steps", "0"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["exit_code"] == 2
        assert manifest["outputs"] == []

    def test_scheme_typo_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["flow", "--config", str(cfg_path), "--scheme", "rk5"]) == 2

    def test_grid_estimate_uses_oracle_box(self, tmp_path):
        def starts(source):
            cfg_path, out = write_config(
                tmp_path, name=f"{source}.json", n=2000, source=source,
                grid={"nodes_per_axis": 7}, flow={"steps": 4, "reference_steps": 8},
            )
            assert cli.main(["flow", "--config", str(cfg_path), "--grid"]) == 0
            rows = (out / "trajectories.csv").read_text().strip().split("\n")[1:]
            return [r.split(",")[2] for r in rows if r.split(",")[1] == "0.0"]

        estimate_starts = starts("estimate")
        assert len(estimate_starts) == 5
        assert estimate_starts == starts("oracle")

    def test_grid_trajectories_match_per_cell_reference(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=ot_process_2d(),
                                     grid={"nodes_per_axis": 6},
                                     flow={"steps": 7, "reference_steps": 14})
        assert cli.main(["flow", "--config", str(cfg_path), "--grid"]) == 0
        cfg = cli.load_config(cfg_path)
        spec = cli.build_process_spec(cfg)
        sgrid = cli._resolve_spatial_grid(cfg, spec, 0.0)
        oracle = flow.analytic_velocity_oracle(spec)
        result = flow.flow_map(oracle, sgrid.interior_points(), 7, "rk4")
        assert result.states.shape == (16, 8, 2) and not result.errors
        text = (out / "trajectories.csv").read_text()
        assert text == reference_trajectories_csv(result)

    def test_kernel_flow_failed_point_has_no_rows(self, tmp_path, monkeypatch):
        # the seed-5 run of test_kernel_flow_failures_per_point: point 2 is refused
        results, flow_map = [], flow.flow_map

        def spy(*args, **kwargs):
            results.append(flow_map(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(flow, "flow_map", spy)
        joint = {
            "mean": [0.0, 0.0, 1.0, -1.0],
            "cov": [[1.0, 0.0, 0.6, 0.0], [0.0, 1.0, 0.0, 0.6],
                    [0.6, 0.0, 1.0, 0.0], [0.0, 0.6, 0.0, 1.0]],
        }
        process = {"coefficients": "affine", "dim": 2,
                   "coupling": {"kind": "gaussian_joint", "joint": joint}}
        cfg_path, out = write_config(
            tmp_path, process=process, n=20_000, seed=5, source="estimate",
            flow={"scheme": "rk4", "steps": 50, "reference_steps": 100, "n_points": 4},
        )
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        (result,) = results
        failed = [i for i, _ in result.errors]
        assert failed == [2]
        text = (out / "trajectories.csv").read_text()
        assert text == reference_trajectories_csv(result)
        ids = [row.split(",")[0] for row in text.splitlines()[1:]]
        assert ids == [str(i) for i in (0, 1, 3) for _ in range(51)]

    def test_kernel_flow_ignores_time_steps(self, tmp_path):
        # the kernel oracle slices at the query's own time: `time_steps` is
        # not a flow option and moves no flow output
        def run(time_steps):
            out = tmp_path / f"out{time_steps}"
            cfg_path, _ = write_config(
                tmp_path, name=f"steps{time_steps}.json", output_dir=str(out), n=2000,
                source="estimate", time_steps=time_steps,
                flow={"steps": 10, "reference_steps": 100, "n_points": 5},
            )
            assert cli.main(["flow", "--config", str(cfg_path)]) == 0
            summary = (out / "straightness.json").read_text()
            config_hash = json.loads(summary)["provenance"]["config_hash"]
            return (out / "trajectories.csv").read_bytes(), summary.replace(config_hash, "")

        assert run(4) == run(20)

    @pytest.mark.parametrize("seed,floor,argv,n_failed,n_null", [
        # a start point is refused at t=0
        pytest.param(5, 25.0, [], 1, 0, id="5-argv0-1-0"),
        # only a reference run fails
        pytest.param(8, 50.0, ["--scheme", "euler", "--steps", "1"], 0, 1,
                     id="8-floor50-argv1-0-1"),
    ])
    def test_kernel_flow_failures_per_point(self, tmp_path, seed, floor, argv, n_failed,
                                            n_null):
        joint = {
            "mean": [0.0, 0.0, 1.0, -1.0],
            "cov": [[1.0, 0.0, 0.6, 0.0], [0.0, 1.0, 0.0, 0.6],
                    [0.6, 0.0, 1.0, 0.0], [0.0, 0.6, 0.0, 1.0]],
        }
        process = {"coefficients": "affine", "dim": 2,
                   "coupling": {"kind": "gaussian_joint", "joint": joint}}
        cfg_path, out = write_config(
            tmp_path, process=process, n=20_000, seed=seed, source="estimate",
            density_floor=floor,
            flow={"scheme": "rk4", "steps": 50, "reference_steps": 100, "n_points": 4},
        )
        assert cli.main(["flow", "--config", str(cfg_path)] + argv) == 0

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        summary = json.loads((out / "straightness.json").read_text(), parse_constant=reject)
        points = summary["points"]
        assert [p["point"] for p in points] == [0, 1, 2, 3]
        assert summary["n_failed"] == n_failed == sum("error" in p for p in points)
        assert sum(p.get("one_step_error", 0.0) is None for p in points) == n_null
        assert summary["one_step"]["max"] > 0


class TestExitCodes:
    def test_diagnose_estimate_tiny_sample_exit_5(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, process=trig_process(), n=30, seed=1,
                                   source="estimate")
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: no admissible nodes")
        assert err.count("\n") == 1

    def test_failed_run_manifest_lists_no_phantom_outputs(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=trig_process(), n=30, seed=1,
                                     source="estimate")
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == []
        assert manifest["error"]["class"] == "NoAdmissibleNodesError"
        assert manifest["error"]["exit_code"] == 5
        assert manifest["error"]["message"].startswith("no admissible nodes")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_complete_run_manifest(self, tmp_path):
        cfg_path, out = write_config(tmp_path, process=trig_process())
        assert cli.main(["diagnose", "--config", str(cfg_path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and "error" not in manifest
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written and len(written) == 5

    def test_defect_still_leaves_failed_manifest(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        cfg_path, out = write_config(tmp_path)
        with pytest.raises(RuntimeError):
            cli.main(["simulate", "--config", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []
        assert manifest["error"] == {"class": "RuntimeError", "message": "boom", "exit_code": 1}

    @pytest.mark.parametrize("process", [
        {"coefficients": "affine", "dim": 2, "coupling": {
            "kind": "independent",
            "mu0": {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]},
            "mu1": {"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}},
        {"coefficients": "affine", "dim": 1, "coupling": {
            "kind": "independent",
            "mu0": {"family": "gaussian_mixture", "weights": [0.5, 0.5],
                    "means": [[-1.0], [1.0]], "covs": [[[0.2]], [[-0.5]]]},
            "mu1": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}}},
    ], ids=["gaussian", "mixture"])
    def test_indefinite_covariance_exit_2(self, tmp_path, capsys, process):
        # the estimate source on a quantile box never asks the oracle, and
        # drawing from the covariance must not clip it
        cfg_path, _ = write_config(tmp_path, process=process, grid={"box": "quantile"})
        assert cli.main(["fields", "--config", str(cfg_path), "--source", "estimate"]) == 2
        assert "is not positive semidefinite" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,argv", [
        ({"process": trig_process(), "time": np.nan}, ["verify", "--theorem", "geometric"]),
        ({"bandwidth": np.inf}, ["fields", "--source", "estimate"]),
        ({"bandwidth": np.inf}, ["flow"]),
        ({"process": {"coefficients": "affine", "dim": 1, "coupling": {
            "kind": "independent",
            "mu0": {"family": "gaussian", "mean": [np.inf], "cov": [[1.0]]},
            "mu1": {"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}}}},
         ["fields", "--source", "estimate"]),
        ({"process": {"coefficients": "affine", "dim": 1, "coupling": {
            "kind": "gaussian_joint",
            "joint": {"mean": [np.nan, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}}}}, ["simulate"]),
        ({}, ["sweep", "--param", "bandwidth", "--values", "inf"]),
        ({}, ["sweep", "--param", "time", "--values", "0.5,inf"]),
    ], ids=["time_nan", "bandwidth_inf_fields", "bandwidth_inf_flow", "gaussian_mean_inf",
            "joint_mean_nan", "sweep_bandwidth_inf", "sweep_time_inf"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, overrides, argv):
        # json.dumps writes NaN and Infinity, which json.loads reads back; a
        # numpy warning on the way would fail the test (warnings are errors)
        cfg_path, _ = write_config(tmp_path, **overrides)
        assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("error,code", [
        (errors.ConfigError("bad"), 2),
        (errors.InvalidArgumentError("bad"), 2),
        (errors.InvalidCouplingError("bad"), 2),
        (errors.InvalidGridError("bad"), 2),
        (errors.NonFiniteDataError("bad"), 2),
        (errors.CapabilityError("bad"), 3),
        (errors.DegenerateMarginalError("bad"), 3),
        (errors.DegenerateDataError("bad"), 3),
        (errors.LowDensityError("bad", rows=np.array([0])), 5),
        (errors.NoAdmissibleNodesError("bad"), 5),
        (errors.TrajectoryLeftSupportError("bad", np.zeros(1), np.zeros((1, 1))), 5),
        (errors.InconsistentMomentsError("bad"), 5),
        (errors.StraightflowError("bad"), 1),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_every_library_error_maps_to_its_code(self, tmp_path, capsys, monkeypatch,
                                                  error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == code
        err = capsys.readouterr().err
        assert err.endswith(": bad\n") and err.count("\n") == 1


class TestSweep:
    def test_vrmse_monotone_in_n(self, tmp_path):
        cfg_path, out = write_config(tmp_path)
        code = cli.main(
            ["sweep", "--config", str(cfg_path), "--param", "n",
             "--values", "1000,10000,100000"]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "param,value,seed,metric,metric_value"
        rmse = [float(r.split(",")[4]) for r in rows[1:] if r.split(",")[3] == "v_rmse"]
        assert len(rmse) == 3
        assert rmse[0] > rmse[1] > rmse[2]

    def test_empty_values_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg_path), "--param", "n", "--values", ""]) == 2

    def test_unknown_param_exit_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert (
            cli.main(["sweep", "--config", str(cfg_path), "--param", "windmills", "--values", "1"])
            == 2
        )

    def test_seed_sweep_rows_differ_only_in_seed(self, tmp_path):
        cfg_path, out = write_config(tmp_path, n=2000)
        code = cli.main(
            ["sweep", "--config", str(cfg_path), "--param", "seed", "--values", "1,2,3"]
        )
        assert code == 0
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().strip().split("\n")[1:]]
        v_rows = [r for r in rows if r[3] == "v_rmse"]
        assert [r[2] for r in v_rows] == ["1", "2", "3"]
        assert all(r[1] == "" for r in v_rows)  # the value column stays constant
        assert len({r[4] for r in v_rows}) == 3  # metrics differ across seeds

    @pytest.mark.parametrize("param,values,seeds", [("n", ["1000", "3000"], [7, 8]),
                                                     ("seed", ["1", "2"], None)])
    def test_matches_per_cell_reference(self, tmp_path, param, values, seeds):
        """``sweep.csv`` rebuilt row by row from ``_sweep_metrics`` on the same
        config, one ``repr(float(x))`` per metric; a seed sweep's value cell is
        empty."""
        cfg_path, out = write_config(tmp_path, n=2000, **({"seeds": seeds} if seeds else {}))
        code = cli.main(["sweep", "--config", str(cfg_path), "--param", param,
                         "--values", ",".join(values)])
        assert code == 0
        cfg = cli.load_config(cfg_path)
        lines = ["param,value,seed,metric,metric_value"]
        for value in values:
            for seed in [value] if param == "seed" else seeds:
                data = json.loads(cfg.canonical) | {param: int(value), "seed": int(seed)}
                metrics = cli._sweep_metrics(cli.ExperimentConfig(data))
                value_cell = "" if param == "seed" else repr(float(value))
                for metric in ("v_rmse", "tr_pi"):
                    lines.append(",".join([param, value_cell, str(seed), metric,
                                           repr(float(metrics[metric]))]))
        assert (out / "sweep.csv").read_text() == "\n".join(lines) + "\n"


class TestSchema:
    def test_published_schema_importable(self):
        assert cli.CONFIG_SCHEMA["type"] == "object"
        assert cli.CONFIG_SCHEMA["additionalProperties"] is False

    @pytest.mark.parametrize("knob", [
        {"tolerances": {"material_max": 1e-3}},
        {"tolerances": {"one_step": 1e-6}},
        {"tolerances": {"chord": 1e-6}},
        {"flow": {"points": [[0.0]]}},
        {"h_t": {"estimated": 1e-3}},
        {"h_t": {"analytic": 1e-5}},
    ], ids=lambda knob: ".".join(next(iter(knob.items()))[1]))
    def test_removed_knobs_rejected(self, tmp_path, capsys, knob):
        cfg_path, _ = write_config(tmp_path, **knob)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert next(iter(knob)) in capsys.readouterr().err

    def test_schema_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("faults,message", [
        ({"n": 0, "flow": {"steps": 0}}, "config field n: 0 is less than the minimum of 1"),
        ({"flow": {"reference_steps": 0}, "grid": {"nodes_per_axis": 2}},
         "config field grid.nodes_per_axis: 2 is less than the minimum of 3"),
        ({"seed": -1, "n": "many"}, "config field seed: -1 is less than the minimum of 0"),
    ], ids=["shallow_first", "same_depth", "type_and_range"])
    def test_two_faults_name_one_field(self, tmp_path, capsys, faults, message):
        cfg_path, _ = write_config(tmp_path, **faults)
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_required_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 10, "seed": 0}))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "process" in capsys.readouterr().err
