#!/usr/bin/env python3
"""The compbase benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {matrix-report,lattice-report,cli-mixed}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; compbase is imported from ``src/``
(it need not be installed).  The seed fixes every input, see
``workloads.py`` for the jobs, why each workload exists and how each job's
known answer is derived.

A pass runs every job of the workload once in a fresh worker interpreter
(``worker.py``), and passes repeat until about ``--seconds`` seconds are
used.  Every worker also times a fixed Fraction loop that does not touch
compbase (``worker.reference_s``), and every time below is scaled to the
speed at which that loop takes ``REF_NOMINAL_S``: on a shared host the
speed drifts by tens of percent within minutes, which would otherwise
swamp the program's own changes.  The raw medians are printed as well.
The metrics:

* ``setup_s``: median time for a fresh interpreter to import compbase and
  load every model of the workload, over ten set-up-only workers and the
  set-up of every pass;
* ``wall_s``: median over passes of the sum of the jobs' times to verdict;
* ``peak_rss_mb``: the worker's peak resident memory, or its largest child's
  when each job runs in its own process;
* printed only: ``latency_p50_s``, the median over jobs of each job's
  median time to verdict; ``latency_tail_s``, the highest percentile of all
  job latencies that has ten jobs above it, when that is at least the
  median; and ``failed_frac``, the jobs whose verdict differs from the known
  answer over the jobs attempted.

Every verdict is checked against its known answer, and every pass must
reproduce the report bytes of the first.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics of ``tracer.py``.  The lines before it give
the metadata, one line per job (exit code, report sha256 and checked total,
for information only), the failing jobs by name, and every metric with its
unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

SETUP_PROBES = 5
# Times are reported at this reference speed: each raw time is scaled by
# REF_NOMINAL_S over the worker's mean ``reference_s()`` sample, so that a
# drift of the host's speed between runs cancels out.
REF_NOMINAL_S = 0.045
WORKER_TIMEOUT_S = 120
TAIL_BEYOND = 10


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_worker(plan: Plan, workdir: Path, tag: str, *, trace=False, setup_only=False, jobs=None):
    """Run one worker to completion; returns (spawn time, its result)."""
    jobs = plan.jobs if jobs is None else jobs
    plan_file, result_file = workdir / f"{tag}-plan.json", workdir / f"{tag}-result.json"
    plan_file.write_text(json.dumps({
        "jobs": [{"name": j.name, "argv": list(j.argv)} for j in jobs],
        "models": list(plan.models),
        "in_process": plan.in_process,
        "trace": trace,
        "setup_only": setup_only,
    }))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_file), str(result_file)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker {tag} timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {err.strip()[-400:]}")
    result = json.loads(result_file.read_text())
    plan_file.unlink()
    result_file.unlink()
    return spawned, result


def at_reference(seconds: float, ref_s: float) -> float:
    return seconds * REF_NOMINAL_S / ref_s


def verdict_ok(job, seen: dict) -> bool:
    return seen["code"] == job.code and (job.clause is None or seen["first_failure"] == job.clause)


def tail(latencies: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs above it.

    None when even the median has fewer jobs above it, as on the report
    workloads, which run only a few long jobs.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return None, None


def metadata(workload: str, seed: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "compbase").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_compbase_lines": lines,
    }


def measure(plan: Plan, workdir: Path, seconds: float, trace: bool) -> dict:
    """Run passes until the time is used; untraced and traced alternate when tracing."""
    setups, untraced, traced = [], [], []
    subprocess.run([sys.executable, "-c", "import compbase"], cwd=ROOT, env=worker_env(),
                   check=True, capture_output=True)  # writes bytecode caches, untimed

    def probe_setup(count: int) -> None:
        for _ in range(count):
            spawned, res = run_worker(plan, workdir, f"setup{len(setups)}", setup_only=True)
            setups.append((res["ready"] - spawned, res["ref_s"]))

    probe_setup(SETUP_PROBES)
    start = time.monotonic()
    passes: list[float] = []
    while True:
        tracing = trace and len(untraced) > len(traced)
        began = time.monotonic()
        spawned, res = run_worker(plan, workdir, f"pass{len(passes)}", trace=tracing)
        setups.append((res["ready"] - spawned, res["ref_s"]))
        (traced if tracing else untraced).append(res)
        passes.append(time.monotonic() - began)
        done = len(untraced) >= (1 if trace else 2) and (not trace or len(traced) >= 1)
        if done and time.monotonic() - start + statistics.median(passes) > seconds:
            break
    probe_setup(SETUP_PROBES)
    return {"setups": setups, "untraced": untraced, "traced": traced}


def check(plan: Plan, runs: dict):
    """Compare every job of every pass with its known answer and with pass 0."""
    reference = runs["untraced"][0]["jobs"]
    attempted, failures, mismatches = 0, [], []
    for kind in ("untraced", "traced"):
        for n, res in enumerate(runs[kind]):
            for job, seen, ref in zip(plan.jobs, res["jobs"], reference):
                attempted += 1
                if not verdict_ok(job, seen):
                    failures.append((job, seen))
                elif (seen["code"], seen["sha256"]) != (ref["code"], ref["sha256"]):
                    mismatches.append(f"{kind} pass {n}: {job.name} report differs from pass 0")
    return attempted, failures, mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "compbase" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        print(f"error: {ROOT} is not a compbase checkout (src/compbase and models/ are needed)",
              file=sys.stderr)
        return 2

    os.chdir(ROOT)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = WORKLOADS[args.workload].build(args.seed, workdir)
        runs = measure(plan, workdir, args.seconds, bool(args.trace))
        probes = run_worker(plan, workdir, "probes", jobs=plan.probes)[1] if plan.probes else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("meta " + json.dumps(metadata(args.workload, args.seed), sort_keys=True))
    for job, seen in zip(plan.jobs, runs["untraced"][0]["jobs"]):
        expect = f"{job.code}" + (f"/{job.clause}" if job.clause else "")
        print(f"job {job.name}: exit {seen['code']} (known {expect}) "
              f"{seen['latency_s']:.3f} s sha256 {seen['sha256']} checked {seen['checked_total']}")

    attempted, failures, mismatches = check(plan, runs)
    for job, seen in failures:
        print(f"FAILED {job.name}: exit {seen['code']}, first_failure {seen['first_failure']}, "
              f"known {job.code}/{job.clause}; stderr: {seen['stderr']}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    if probes is not None:
        for job, seen in zip(plan.probes, probes["jobs"]):
            state = "ok" if verdict_ok(job, seen) else "FAILED (known defect)"
            print(f"probe {job.name}: exit {seen['code']} (known {job.code}) {state}; "
                  f"stderr: {seen['stderr']}")

    untraced = runs["untraced"]
    walls = [at_reference(r["wall_s"], r["ref_s"]) for r in untraced]
    latencies = [at_reference(j["latency_s"], r["ref_s"]) for r in untraced for j in r["jobs"]]
    per_job = [statistics.median(at_reference(r["jobs"][i]["latency_s"], r["ref_s"])
                                 for r in untraced)
               for i in range(len(plan.jobs))]
    e2e = {
        "setup_s": (statistics.median(at_reference(s, ref) for s, ref in runs["setups"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in untraced), "MB"),
    }
    tail_value, tail_p = tail(latencies)
    info = {
        "latency_p50_s": (statistics.median(per_job), "s"),
        "failed_frac": (len(failures) / attempted, "ratio"),
    }
    if tail_value is not None:
        info["latency_tail_s"] = (tail_value, "s")
    for name, (value, unit) in {**e2e, **info}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"raw setup_s = {statistics.median(s for s, _ in runs['setups']):.6g} s, "
          f"raw wall_s = {statistics.median(r['wall_s'] for r in untraced):.6g} s, "
          f"reference_s = {statistics.median(r['ref_s'] for r in untraced):.6g} s "
          f"(times above are scaled to {REF_NOMINAL_S} s)")
    print(f"passes {len(untraced)} untraced, {len(runs['traced'])} traced; wall_s per pass "
          + " ".join(f"{w:.3f}" for w in walls)
          + f"; setup samples {len(runs['setups'])}; jobs {len(latencies)} untraced"
          + (f"; latency_tail_s is p{tail_p} of {len(latencies)} jobs" if tail_p else ""))

    metrics = e2e
    if args.trace:
        per_pass = [tracer.layer_metrics(r["trace"]) for r in runs["traced"]]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["reporting.checked_total"] = (
            sum(j["checked_total"] for j in runs["traced"][0]["jobs"]), "count")
        metrics["trace.overhead_s"] = (
            statistics.median(at_reference(r["wall_s"], r["ref_s"]) for r in runs["traced"])
            - e2e["wall_s"][0], "s")
        print(f"metric trace.overhead_s = {metrics['trace.overhead_s'][0]:.6g} s")
        missing = runs["traced"][0]["trace"]["missing"]
        if missing:
            print("trace: not in this compbase, reported as 0: " + ", ".join(missing))

    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
