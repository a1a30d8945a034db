"""Benchmark harness for timebin-qkd.

    python3 perfbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Runs one workload (see BENCHMARK.json) from the source tree of the checkout
it sits in.  It first measures set-up time in fresh processes: each imports
`timebin_qkd`, builds the config and makes one small warm-up call of the
flow.  Then it sets up in this process and calls the flow at full size
until `--seconds` have passed, checking the outputs of every call.

With `--trace 0` the calls run untraced and the result carries the
end-to-end metrics.  With `--trace 1` untraced and traced calls alternate:
the traced ones give the per-layer metrics (see spans.py) and the two
medians give the tracing overhead; the spans are written to
.perfbench_runs/ at the end.

Two lines go to stdout: first a detail record with the machine facts, the
per-call timings, the set-up samples and `failed_frac`, then, as the last
line, the result {"correct", "attempted", "failed", "metrics"}.  A call
fails if it raises, if the CLI exits non-zero or if an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 5
MIN_CALLS_PER_MODE = 2
PROBE_TIMEOUT_S = 120

# The flows never call BLAS; one BLAS thread keeps each process at the
# main thread plus the flow's own workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("session", "pump_scan", "tag_dump"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _git_commit() -> str | None:
    # GIT_CEILING_DIRECTORIES keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _machine(workloads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": workloads.NPROC,
        "workers": workloads.WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _probe_setup(args, count: int) -> list[float]:
    """Seconds from process start to ready, in `count` fresh processes.

    The caller has imported the package already, so the file cache, and the
    bytecode cache where Python writes one, are warm before the first start.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
    ] + (["--toy"] if args.toy else [])
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_calls(wl, seconds: float, modes) -> list[dict]:
    """Call the flow until `seconds` pass, cycling through `modes` (context factories)."""
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k < MIN_CALLS_PER_MODE * len(modes):
        mode = k % len(modes)
        k += 1
        try:
            with modes[mode]():
                start = time.perf_counter()
                out = wl.call()
                elapsed = time.perf_counter() - start
            problems = wl.check(out)
        except Exception:  # a failed call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            records.append({"mode": mode, "seconds": None, "problems": ["raised"]})
            continue
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        records.append(
            {"mode": mode, "seconds": elapsed, "problems": problems, "peak_rss_mb": _peak_rss_mb()}
        )
    return records


def _median_seconds(records, mode: int) -> float:
    times = [r["seconds"] for r in records if r["mode"] == mode and r["seconds"] is not None]
    return statistics.median(times) if times else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "timebin_qkd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'timebin_qkd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    scratch = RUNS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
            print("ready", flush=True)
            return 0

        setup_samples = _probe_setup(args, 1 if args.toy else SETUP_PROBES)
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
        tracer = spans.Tracer()
        if args.trace:
            patches = spans.patch_points()
            modes = [nullcontext, lambda: tracer.installed(patches)]
        else:
            modes = [nullcontext]
        records = _run_calls(wl, args.seconds, modes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "pulses_per_call": wl.pulses_per_call,
        "machine": _machine(workloads),
        "setup_samples_s": setup_samples,
        "calls": records,
        "failed_frac": failed / attempted,
    }
    if args.trace:
        untraced, traced = _median_seconds(records, 0), _median_seconds(records, 1)
        overhead = traced / untraced - 1.0 if untraced and traced else 0.0
        traced_calls = sum(1 for r in records if r["mode"] == 1)
        values = spans.layer_metrics(tracer.spans, traced_calls, overhead)
        metrics = {
            m.name: {"value": values[m.name], "unit": m.unit} for m in spans.LAYER_METRICS
        }
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]) + "\n")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rates = [wl.pulses_per_call / r["seconds"] for r in records if r["seconds"] is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "pulses_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
