"""Benchmark child process: set up, run a workload's CLI command sequence
once, check the outputs and report timings as JSON.

Usage (started by run.py, one child per probe or sequence)::

    python3 perfbench/child.py PLAN RESULT MODE T0

MODE is ``probe`` (set up and exit), ``run`` (one untraced sequence) or
``trace`` (one traced sequence).  T0 is the parent's ``time.monotonic()``
just before starting this process, so set-up time covers interpreter
start-up.  Within the sequence each command starts when the previous one
ends.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _setup(plan: dict):
    sys.path.insert(0, str(SRC))
    import jsonschema  # noqa: F401  (imported by load_config; part of set-up)
    import numpy  # noqa: F401

    import straightflow
    from straightflow import calculus, cli, core, estimate, flow, gaussian, verify  # noqa: F401

    cli.load_config(plan["commands"][0]["argv"][2])
    return straightflow


def _machine_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
    }


def _clear(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for p in out_dir.iterdir():
        p.unlink()


def check_op(cmd: dict, code, error: str | None, check_outputs) -> dict:
    """Exit code, the outputs the manifest lists (hashed for the parent's
    repeat comparison) and the workload's content checks."""
    result = {"ok": False, "reason": None, "hashes": {}, "result_bytes": 0}
    if error is not None:
        result["reason"] = error
        return result
    if code != cmd["expect_exit"]:
        result["reason"] = f"exit code {code}, expected {cmd['expect_exit']}"
        return result
    out = Path(cmd["out_dir"])
    try:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        for name in outputs:
            data = (out / name).read_bytes()
            result["hashes"][name] = hashlib.sha256(data).hexdigest()
            result["result_bytes"] += len(data)
    except (OSError, ValueError, KeyError) as err:
        result["reason"] = f"missing output: {type(err).__name__}: {err}"
        return result
    result["reason"] = check_outputs(cmd)
    result["ok"] = result["reason"] is None
    return result


def run_sequence(plan: dict, cli, check_outputs, tracer) -> dict:
    ops = []
    for cmd in plan["commands"]:
        _clear(Path(cmd["out_dir"]))
        gc.collect()
        sink = io.StringIO()
        error = code = None
        # the traced root span of a command is named after its label
        main = tracer.wrap(f"cli.{cmd['label']}", cli.main) if tracer else cli.main
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(cmd["argv"])
        except Exception as exc:  # a traceback is a failed operation, not a crash
            error = f"uncaught {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.collect_oracle_stats()
        op = {"label": cmd["label"], "command": cmd["command"], "wall_s": wall, "exit": code}
        op.update(check_op(cmd, code, error, check_outputs))
        ops.append(op)
    seq = {"ops": ops, "run_s": sum(op["wall_s"] for op in ops), "traced": tracer is not None}
    if tracer is not None:
        import tracing

        seq["layers"] = tracing.layer_metrics(tracer, sum(op["result_bytes"] for op in ops))
        seq["spans"] = tracing.span_table(tracer.spans, by_root=True)
    return seq


def main(argv: list[str]) -> int:
    plan_path, result_path, mode, t0 = argv[1:5]
    plan = json.loads(Path(plan_path).read_text())
    package = _setup(plan)
    result = {"setup_s": time.monotonic() - float(t0)}
    if mode != "probe":
        import workloads

        from straightflow import cli

        result["facts"] = _machine_facts()
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer(plan["density_floor"])
            result["facts"]["traced_bindings"] = tracing.instrument(tracer, package)
        result["sequence"] = run_sequence(plan, cli, workloads.check_outputs, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
