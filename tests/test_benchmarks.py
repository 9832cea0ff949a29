"""The scripts in ``benchmarks/`` keep running against the package's API."""

import importlib.util
import json
import math
from pathlib import Path

from straightflow import cli


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
