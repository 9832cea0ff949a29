"""Verdict counts of the geometric harness over seed ranges, written to
``VERDICTS_<label>.json``.

Run from the repository root, once per tree::

    python benchmarks/verdicts.py --src ../parent/src --label parent
    python benchmarks/verdicts.py --src src --label change

``--src`` is the directory that holds the tree's ``straightflow`` package,
imported with ``STRAIGHTFLOW_THREADS=1`` as ``benchmarks/outputs.py`` does.
It writes ``.benchmarks/VERDICTS_<label>.json``: the machine facts, then per
instance the counts of each verdict of ``verify.geometric_report`` over its
seeds and the distribution of z = identity gap / its standard error (sd,
largest |z| and how many |z| exceed 3).  Every instance is the trig
interpolant from N(0, 1) to N(0, 1) in 1-D:

- ``lab_1d``: the independent coupling at the lab_1d benchmark workload's
  call (n = 5e4, t = 0.5 of a 10-step grid), seeds 1-400.
- ``lab_1d_t0.1``: the same at t = 0.1, seeds 1-150.
- ``criterion_6``: the independent coupling at acceptance criterion 6's size
  (n = 1e5, t = 0.5 of a 2-step grid), seeds 1-100.
- ``trig_det_identity``: the deterministic identity map, which breaks the
  straightness balance law, at n = 1e5 and t = 0.5, seeds 30-40; every seed
  should read ``violated``.

Apart from the wall times, two runs write the same JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import numpy as np  # noqa: E402

from outputs import import_cli  # noqa: E402

VERDICTS = ("consistent", "violated", "inconclusive")
# name -> (coupling kind, n, steps, t_index, seeds)
INSTANCES = {
    "lab_1d": ("independent", 50_000, 10, 5, range(1, 401)),
    "lab_1d_t0.1": ("independent", 50_000, 10, 1, range(1, 151)),
    "criterion_6": ("independent", 100_000, 2, 1, range(1, 101)),
    "trig_det_identity": ("deterministic_map", 100_000, 2, 1, range(30, 41)),
}


def trig_spec(kind: str):
    """The trig process from N(0, 1) to N(0, 1), coupled independently or by
    the identity map."""
    from straightflow import core

    std = core.Gaussian(np.zeros(1), np.eye(1))
    amap = core.AffineMap(np.eye(1), np.zeros(1)) if kind == "deterministic_map" else None
    return core.ProcessSpec("trig", core.CouplingSpec(kind, std, std, map=amap), 1)


def audit(kind: str, n: int, steps: int, t_index: int, seeds) -> dict:
    """Verdict counts and the distribution of z over ``seeds``."""
    # imported on call, so that ``main`` runs the package of ``--src``
    from straightflow import core, verify

    spec = trig_spec(kind)
    counts = dict.fromkeys(VERDICTS, 0)
    z = []
    start = time.perf_counter()
    for seed in seeds:
        report = verify.geometric_report(spec, core.sample_endpoints(spec, n, seed),
                                         steps, t_index)
        counts[report.verdict] += 1
        z.append(report.metrics["identity_gap"] / report.metrics["identity_gap_se"])
    z = np.array(z)
    return {
        "coupling": kind,
        "n": n,
        "t": report.inputs["t"],
        "seeds": [seeds[0], seeds[-1]],
        "verdicts": counts,
        "sd_z": float(np.std(z, ddof=1)),
        "max_abs_z": float(np.abs(z).max()),
        "abs_z_over_3": int(np.sum(np.abs(z) > 3.0)),
        "seconds": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the straightflow package to run")
    parser.add_argument("--label", required=True, help="names VERDICTS_<label>.json")
    args = parser.parse_args(argv)
    cli = import_cli(args.src)
    report = {
        "label": args.label,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "STRAIGHTFLOW_THREADS": os.environ.get("STRAIGHTFLOW_THREADS"),
            "straightflow": str(Path(cli.__file__).resolve().parent),
        },
        "instances": {name: audit(*args_) for name, args_ in INSTANCES.items()},
    }
    path = ROOT / ".benchmarks" / f"VERDICTS_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    for name, row in report["instances"].items():
        counts = " / ".join(f"{row['verdicts'][v]} {v}" for v in VERDICTS)
        print(f"{name}: {counts}; sd z {row['sd_z']:.3f}, max |z| {row['max_abs_z']:.2f}, "
              f"{row['abs_z_over_3']} over 3 ({row['seconds']:.1f} s)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
