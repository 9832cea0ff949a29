"""The scripts in ``benchmarks/`` keep running against the package's API."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from straightflow import cli, core, estimate, verify


def load(name):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_bench_builds_the_csv_tables():
    tables = load("layers").csv_tables()
    assert {name: len(group) for name, group in tables.items()} == {
        "fields": 5, "diagnose": 4, "flow": 1}
    for group in tables.values():
        for lead, values in group:
            assert math.prod(len(cells) for cells in lead) == values.shape[0]


def test_layer_bench_takes_the_geometric_kernel_call(monkeypatch):
    # the kernel_1d layer's arguments are the ones verify --theorem geometric
    # hands nw_regress at t = 0.5 of its 10-step grid, bit for bit
    layers = load("layers")
    monkeypatch.setattr(layers, "_KERNEL_1D", {"tiny": (2_000, 3)})
    calls = layers.kernel_1d_calls()
    spec = cli.build_process_spec(
        layers._config({"process": layers._TRIG_1D_PROCESS, "n": 2_000, "seed": 3}))
    seen, nw_regress = [], estimate.nw_regress
    monkeypatch.setattr(estimate, "nw_regress",
                        lambda *args: seen.append(args) or nw_regress(*args))
    verify.geometric_report(spec, core.sample_endpoints(spec, 2_000, 3), 10, 5)
    (want,) = seen
    assert list(calls) == ["tiny"]
    for got, ref in zip(calls["tiny"], want, strict=True):
        assert np.array_equal(got, ref)
    row = layers.time_kernel_1d(calls)["tiny"]
    assert (row["n"], row["m"]) == (2_000, 2_000) and len(row["runs_s"]) == layers.REPEATS


def test_layer_bench_times_the_ensemble_writer():
    layers = load("layers")
    rows = layers.time_ensemble({"tiny": (layers._TRIG_2D_PROCESS, 50, 3)})
    row = rows["tiny"]
    assert (row["n"], row["k"], row["d"]) == (50, 4, 2)
    assert row["bytes"] == 29 + 24 * 50 * 4 * 2
    assert len(row["runs_s"]) == layers.REPEATS and row["peak_traced_mb"] > 0


def test_output_copy_runs_the_oracle_workload(tmp_path):
    failures = load("outputs").write_outputs(cli, [3], tmp_path, scale="tiny",
                                             names=("oracle_2d",))
    assert failures == []
    seed_dir = tmp_path / "oracle_2d" / "seed3"
    runs = {p.parent.name: json.loads(p.read_text()) for p in seed_dir.glob("*/run.json")}
    assert sorted(runs) == ["diagnose", "fields", "flow"]
    assert all(run["exit"] == 0 and run["stderr"] == "" for run in runs.values())
    manifest = json.loads((seed_dir / "flow" / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["straightness.json", "trajectories.csv"]
    assert all((seed_dir / "flow" / name).is_file() for name in manifest["outputs"])
