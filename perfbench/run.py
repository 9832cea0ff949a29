"""straightflow benchmark: runs one workload's CLI commands and prints its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lab_1d --seed 1 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``; metrics and findings are described
in ``NOTES.md``.  A run starts one child process per command sequence and
repeats sequences until the run is as near ``--seconds`` long as whole
sequences allow (at least two).  With ``--trace 0`` the sequences are
untraced, set-up probes run between them, and the run reports the end-to-end
metrics.  With ``--trace 1`` untraced and traced sequences
alternate and the run reports the per-layer metrics.  Every metric is
printed with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run needs
``src/straightflow`` next to this directory and exits with status 2,
printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread: the measured child then occupies one core and leaves the
# other to the OS and this parent, which steadies timings on a 2-core box.
THREADS = 1
# Set-up samples per untraced run, counting each sequence's own process.
# Probes keep pace with the run, so they meet the machine's speed phases the
# way the sequences do.
SETUP_SAMPLES = 24
MIN_SEQUENCES = 2
MAX_SEQUENCES = 50  # bounds a run of very short sequences
RUN_DEADLINE_S = 170.0  # a run never takes longer than 180 s

COMMANDS = ("simulate", "fields", "diagnose", "verify", "flow", "sweep")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **tracing.LAYER_METRICS,
    **{f"{c}_s": "s" for c in COMMANDS},
    "trace_overhead_frac": "frac",
}


def upper_decile(values) -> float:
    """The 90th percentile, interpolated between samples.  On this shared
    host a process runs in fast phases and in slower, contended ones; the
    contended time is the steadier of the two from run to run, and the upper
    decile reads it while one outlying sample cannot move it far."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _run_child(plan_path: Path, result_path: Path, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    # STRAIGHTFLOW_THREADS is what a user sets; the CLI maps it onto the BLAS
    # variables at start-up, which a child importing numpy first must mirror.
    for var in ("STRAIGHTFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another child process")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path), mode,
         repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child ran past the deadline")
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{mode} child exited with {proc.returncode}: " + " | ".join(tail))
    return json.loads(result_path.read_text())


def _command_times(sequences) -> dict:
    """Median over sequences of the wall time summed per command name."""
    per_seq = []
    for seq in sequences:
        totals = {c: 0.0 for c in COMMANDS}
        for op in seq["ops"]:
            totals[op["command"]] += op["wall_s"]
        per_seq.append(totals)
    return {f"{c}_s": statistics.median([s[c] for s in per_seq]) for c in COMMANDS}


def _mark_repeats(sequences) -> None:
    """Fail an operation whose outputs differ from the first run of the same
    command in this benchmark run (same seed, so they must be identical)."""
    first: dict = {}
    for seq in sequences:
        for op in seq["ops"]:
            if op["ok"] and first.setdefault(op["label"], op["hashes"]) != op["hashes"]:
                op["ok"] = False
                op["reason"] = "outputs differ from an earlier run of the same command and seed"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", plan_hook=None) -> dict:
    """Run one workload; returns the JSON result and the human-readable report lines."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "straightflow" / "__init__.py").is_file():
        raise BenchError(f"no straightflow sources under {ROOT / 'src'}")
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups, children = [], []
    try:
        plan = workloads.build_plan(workload, seed, scale, work)
        if plan_hook is not None:
            plan_hook(plan)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=2))

        def child(mode):
            return _run_child(plan_path, work / "result.json", mode, deadline)

        start = time.monotonic()
        while True:
            # trace mode alternates untraced and traced sequences in the order
            # U T T U U T T U ..., so drift falls on both kinds
            traced = trace and len(children) % 4 in (1, 2)
            children.append(child("trace" if traced else "run"))
            if not traced:
                setups.append(children[-1]["setup_s"])
            elapsed = time.monotonic() - start
            while not trace and len(setups) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
                setups.append(child("probe")["setup_s"])
                elapsed = time.monotonic() - start
            # stop where the run ends nearest to --seconds
            cycle = elapsed / len(children)
            done = elapsed + cycle / 2 >= seconds and len(children) >= MIN_SEQUENCES
            if done or len(children) >= MAX_SEQUENCES:
                break
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(child("probe")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sequences = [c["sequence"] for c in children]
    _mark_repeats(sequences)
    ops = [op for seq in sequences for op in seq["ops"]]
    failures = [f"{op['label']}: {op['reason']}" for op in ops if not op["ok"]]
    untraced = [q for q in sequences if not q["traced"]]
    if trace:
        traced = [q for q in sequences if q["traced"]]
        metrics = {
            # counts repeat exactly across sequences; median_low keeps them whole
            name: (statistics.median_low if unit in ("count", "bytes") else statistics.median)(
                [q["layers"][name] for q in traced]
            )
            for name, unit in tracing.LAYER_METRICS.items()
        }
        metrics.update(_command_times(untraced))
        metrics["trace_overhead_frac"] = (
            statistics.median([q["run_s"] for q in traced])
            / statistics.median([q["run_s"] for q in untraced]) - 1.0
        )
        units = PER_LAYER
    else:
        metrics = {
            "run_s": upper_decile([q["run_s"] for q in untraced]),
            "setup_s": upper_decile(setups),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        units = END_TO_END

    facts = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "STRAIGHTFLOW_THREADS": THREADS,
        **children[0]["facts"],
        "git_commit": _git_commit(),
        "sequences (U untraced, T traced; run_s; command times below)": " ".join(
            f"{'T' if q['traced'] else 'U'}{q['run_s']:.4f}" for q in sequences
        ),
        "set-up samples (s)": " ".join(f"{x:.4f}" for x in setups),
        "load": "one closed-loop client; one process per sequence, commands back to back",
    }
    report = [f"# {k}: {v}" for k, v in facts.items()]
    report += [
        f"#   {'T' if q['traced'] else 'U'} " + " ".join(
            f"{op['label']} {op['wall_s']:.4f}" for op in q["ops"]
        )
        for q in sequences
    ]
    report += [f"{name} = {metrics[name]!r} {unit}" for name, unit in units.items()]
    attempted = len(ops)
    failed = len(failures)
    report.append(f"fail_rate = {failed / attempted!r} frac ({failed} of {attempted} operations)")
    report += [f"FAILED {f}" for f in failures]
    if trace:
        report.append("# traced self time per command and span (median over traced sequences):")
        keys = sorted({k for q in traced for k in q["spans"]})
        table = {
            k: [statistics.median(q["spans"].get(k, [0.0, 0])[i] for q in traced) for i in (0, 1)]
            for k in keys
        }
        for k, (own, calls) in sorted(table.items(), key=lambda kv: (kv[0].split()[0], -kv[1][0])):
            if own >= 0.001:
                root, name = k.split()
                report.append(f"#   {root[4:]:<20} {name:<36} {own:9.4f} s {int(calls):7d} calls")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
