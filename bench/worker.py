"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py PLAN.json RESULT.json

PLAN.json holds the jobs, the model files, whether jobs run in this process
or one process each, and whether to trace.  The worker imports compbase and
loads every model (set-up), notes the monotonic clock, runs the jobs one
after another and writes what it saw to RESULT.json: per job the exit code,
the sha256 of the report bytes, the report's ``first_failure`` and the sum
of its clauses' ``checked`` counts, and the time to verdict.  Between jobs
it times ``reference_s()``; the pass's ``wall_s`` is the sum of the jobs'
times to verdict, which leaves those samples out.  The parent process
checks the verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

JOB_TIMEOUT_S = 100
REF_ROUNDS = 10
REF_SAMPLES = 24


def reference_s() -> float:
    """Time of a fixed Fraction workload that does not touch compbase.

    It samples the speed the machine gives this process.  On a shared host
    that speed drifts by tens of percent within minutes, and the parent
    divides it out of the timings (see ``run.py``).
    """
    start = time.perf_counter()
    x = 12345
    for _ in range(REF_ROUNDS):
        m = []
        for _ in range(3):
            row = []
            for _ in range(3):
                x = (x * 1103515245 + 12345) % 2**31
                row.append(Fraction(x % 33 - 16, x % 16 + 1))
            m.append(row)
        for _ in range(6):
            m = [[sum(a * b for a, b in zip(r, c)) / (1 + abs(sum(r))) for c in zip(*m)]
                 for r in m]
    return time.perf_counter() - start


def checked_total(doc) -> int:
    """Sum of ``checked`` over every clause of a report document."""
    if isinstance(doc, dict):
        own = sum(c.get("checked", 0) for c in doc.get("clauses", ()) if isinstance(c, dict))
        return own + sum(checked_total(v) for k, v in doc.items() if k != "clauses")
    if isinstance(doc, list):
        return sum(checked_total(v) for v in doc)
    return 0


def describe(code, stdout: str, stderr: str, latency: float) -> dict:
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    lines = [line for line in stderr.splitlines() if line.strip()]
    return {
        "code": code,
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "first_failure": doc.get("first_failure") if isinstance(doc, dict) else None,
        "checked_total": checked_total(doc),
        "stderr": lines[-1] if lines else "",
        "latency_s": latency,
    }


def run_in_process(argv, cli_main) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a wrong verdict, not a benchmark error
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    return describe(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_subprocess(argv, trace_file: Path | None) -> dict:
    if trace_file is None:
        cmd = [sys.executable, "-m", "compbase.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(trace_file), *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return describe(None, "", f"timed out after {JOB_TIMEOUT_S} s", time.perf_counter() - start)
    return describe(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])

    import compbase
    import compbase.cli

    for path in plan["models"]:
        compbase.load_model(path)
    ready = time.monotonic()
    if plan["setup_only"]:
        refs = [reference_s() for _ in range(3)]
        result_path.write_text(json.dumps({"ready": ready, "ref_s": sum(refs) / len(refs)}))
        return 0

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        if plan["in_process"]:
            tracer.install()
        total = tracing.empty_snapshot()

    # about REF_SAMPLES samples per pass, spread over the gaps between jobs
    per_gap = max(1, round(REF_SAMPLES / (len(plan["jobs"]) + 1)))
    jobs, refs = [], [reference_s() for _ in range(per_gap)]
    for i, job in enumerate(plan["jobs"]):
        if plan["in_process"]:
            if tracer is not None:
                tracer.begin_job()
            jobs.append(run_in_process(job["argv"], compbase.cli.main))
        else:
            trace_file = None
            if tracer is not None:
                trace_file = result_path.with_name(f"{result_path.stem}-job{i}.json")
            jobs.append(run_subprocess(job["argv"], trace_file))
            if trace_file is not None and trace_file.exists():
                tracing.merge(total, json.loads(trace_file.read_text()))
                trace_file.unlink()
        refs += [reference_s() for _ in range(per_gap)]

    who = resource.RUSAGE_SELF if plan["in_process"] else resource.RUSAGE_CHILDREN
    result = {
        "ready": ready,
        "ref_s": sum(refs) / len(refs),
        "wall_s": sum(j["latency_s"] for j in jobs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "jobs": jobs,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot() if plan["in_process"] else total
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
