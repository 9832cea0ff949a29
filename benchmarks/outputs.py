"""Result files of every benchmark workload, for a byte check between trees.

Run from the repository root, once per tree, then compare the copies::

    python benchmarks/outputs.py --src ../parent/src --seeds 3,17,31 --dest /tmp/parent
    python benchmarks/outputs.py --src src --seeds 3,17,31 --dest /tmp/change
    diff -r -x manifest.json /tmp/parent /tmp/change

``--src`` is the directory that holds the tree's ``straightflow`` package.
For each seed, every plan of ``perfbench/workloads.py`` is built at full
size and its commands run, one after another, through that tree's
``cli.main`` with ``STRAIGHTFLOW_THREADS=1``, as the benchmark runs them.
Plans are written under one fixed work directory, so each config, and with
it each ``config_hash``, reads the same whichever tree runs it.  After each
command its output directory is copied to ``DEST/<workload>/seed<N>/<label>``
together with ``run.json``: the exit code and the captured standard output
and error.  Every failed output check is printed, and the script exits 1
when any check failed.  ``manifest.json`` holds a timestamp, so it differs
from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

WORK = Path(tempfile.gettempdir()) / "straightflow-outputs"


def import_cli(src: Path):
    """``straightflow.cli`` from ``src``; refuses a package found elsewhere."""
    os.environ.setdefault("STRAIGHTFLOW_THREADS", "1")
    sys.path.insert(0, str(src))
    from straightflow import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"straightflow was imported from {cli.__file__}, not from {src}")
    return cli


def write_outputs(cli, seeds, dest: Path, scale: str = "full",
                  names=workloads.WORKLOADS) -> list[str]:
    """Run every plan of ``names`` at ``scale`` for each seed and copy what
    each command wrote under ``dest``; returns the failed output checks."""
    failures = []
    for name in names:
        for seed in seeds:
            shutil.rmtree(WORK, ignore_errors=True)
            plan = workloads.build_plan(name, seed, scale, WORK)
            for cmd in plan["commands"]:
                out = Path(cmd["out_dir"])
                shutil.rmtree(out, ignore_errors=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(cmd["argv"])
                target = dest / name / f"seed{seed}" / cmd["label"]
                shutil.copytree(out, target)
                (target / "run.json").write_text(json.dumps(
                    {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()},
                    indent=2, sort_keys=True) + "\n")
                if code != cmd["expect_exit"]:
                    reason = f"exit code {code}, expected {cmd['expect_exit']}"
                else:
                    reason = workloads.check_outputs(cmd)
                if reason:
                    failures.append(f"{name} seed {seed} {cmd['label']}: {reason}")
    shutil.rmtree(WORK, ignore_errors=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the straightflow package to run")
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    parser.add_argument("--dest", required=True, type=Path,
                        help="directory to copy the result files to; must not exist")
    args = parser.parse_args(argv)
    if args.dest.exists():
        parser.error(f"--dest {args.dest} already exists")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    failures = write_outputs(import_cli(args.src), seeds, args.dest)
    for line in failures:
        print(f"failed check: {line}")
    print(f"wrote {args.dest}: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
