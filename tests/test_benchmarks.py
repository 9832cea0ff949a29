"""The scripts in ``benchmarks/`` keep running against the package's API."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from straightflow import cli, core, neighbours, verify


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


def test_layer_bench_takes_the_geometric_trace_call(monkeypatch):
    # the geometric trace rows hand the neighbour search the arguments
    # verify --theorem geometric hands it at t = 0.5 of its 10-step grid, bit
    # for bit
    layers = load("layers")
    calls = layers.geometric_slices({"tiny": (2_000, 3)})
    spec = cli.build_process_spec(
        layers._config({"process": layers._TRIG_1D_PROCESS, "n": 2_000, "seed": 3}))
    seen, search = [], neighbours.nearest_and_count
    monkeypatch.setattr(neighbours, "nearest_and_count",
                        lambda *args: seen.append(args) or search(*args))
    verify.geometric_report(spec, core.sample_endpoints(spec, 2_000, 3), 10, 5)
    (want,) = seen
    row = layers.time_trace(calls)["tiny"]
    assert len(seen) == 1 + layers.REPEATS
    for got in seen[1:]:
        for arg, ref in zip(got, want, strict=True):
            assert np.array_equal(arg, ref)
    assert (row["n"], row["m"]) == (2_000, 2_000) and len(row["runs_s"]) == layers.REPEATS


def test_layer_bench_times_the_ensemble_writer():
    layers = load("layers")
    rows = layers.time_ensemble({"tiny": (layers._TRIG_2D_PROCESS, 50, 3)})
    row = rows["tiny"]
    assert (row["n"], row["k"], row["d"]) == (50, 4, 2)
    assert row["bytes"] == 29 + 24 * 50 * 4 * 2
    assert len(row["runs_s"]) == layers.REPEATS and row["peak_traced_mb"] > 0


def test_verdict_audit_counts_every_seed():
    row = load("verdicts").audit("independent", 2_000, 10, 5, range(1, 3))
    assert sum(row["verdicts"].values()) == 2 and row["seeds"] == [1, 2]
    assert (row["n"], row["t"]) == (2_000, 0.5)
    assert row["max_abs_z"] >= 0 and 0 <= row["abs_z_over_3"] <= 2


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
