"""The layer bench in ``benchmarks/layers.py`` keeps running against the
package's API."""

import importlib.util
import math
from pathlib import Path


def load_layers():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_bench_builds_the_csv_tables():
    tables = load_layers().csv_tables()
    assert {name: len(group) for name, group in tables.items()} == {
        "fields": 5, "diagnose": 4, "flow": 1}
    for group in tables.values():
        for lead, values in group:
            assert math.prod(len(cells) for cells in lead) == values.shape[0]
