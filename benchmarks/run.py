"""memspin benchmark: four verified workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh interpreters, one at a time: SETUP_RUNS of them
time the set-up (one with --trace 1, which reports no set-up time), and the
last one also runs the measured ops (a closed loop, one client).  A workload
that has not finished time_limit_s(--seconds) after it started is killed and
the run fails.  The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from layers import UNITS as LAYER_UNITS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("golden_network", "transfer_probe", "regime_sweep", "cz_herald")
SETUP_RUNS = 7
MAX_DRIFT = 1e-10
RESULTS_DIR = "bench_results"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def time_limit_s(seconds: float) -> float:
    """How long one workload may take: its set-ups, the ops that start within
    ``seconds`` and the last op's overrun, with room for a slow host.  At the
    default 15 s this is 120 s, inside the 180 s a benchmark run may take."""
    return 60.0 + 4.0 * seconds


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(root: str, worker_args: list[str], deadline: float):
    """Start one worker; returns (seconds until READY, READY payload, RESULT payload)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *worker_args], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.startswith("READY "):
        raise BenchError(f"worker {' '.join(worker_args[:2])} exited with {code}")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, json.loads(ready[len("READY "):]), result


def run_context(root: str, ready: dict) -> dict:
    src_loc = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_loc += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), **ready,
            "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
            "src_loc": src_loc}


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    results = os.path.join(root, RESULTS_DIR)
    os.makedirs(results, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=results)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    try:
        for i in range(0 if trace else SETUP_RUNS - 1):
            wd = os.path.join(work, f"setup{i}")
            os.makedirs(wd)
            setups.append(spawn(root, common + ["--work-dir", wd, "--setup-only"],
                                deadline)[0])
        wd = os.path.join(work, "run")
        os.makedirs(wd)
        setup_s, ready, result = spawn(
            root, common + ["--work-dir", wd, "--trace", str(int(trace))], deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        raise BenchError(f"worker for {name} printed no result")

    ops = result["ops"]
    drifts = [o["drift"] for o in ops if "drift" in o]
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "context": run_context(root, ready),
        "setups_s": setups,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["failures"]),
        "mismatches": result["mismatches"],
        "drift": max(drifts) if drifts else None,
        "e2e": {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(o["solve_s"] for o in ops),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "ops": ops,
    }
    if trace:
        summary["layers"] = {k: result["layers"].get(k, 0.0) for k in LAYER_UNITS}
        summary["spans"] = result["spans"]
    summary["correct"] = (summary["failed"] == 0 and not summary["mismatches"]
                          and (summary["drift"] is None or summary["drift"] <= MAX_DRIFT))
    record = os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def report(s: dict) -> str:
    """Human-readable lines for one workload run, then its JSON result line."""
    ctx = s["context"]
    lines = [
        f"workload {s['workload']}  seed {s['seed']}  seconds {s['seconds']:g}  "
        f"trace {s['trace']}",
        f"  context: nproc {ctx['nproc']}, python {ctx['python']}, numpy {ctx['numpy']}, "
        f"scipy {ctx['scipy']}, src_loc {ctx['src_loc']}, blas "
        + " ".join(f"{k}={v}" for k, v in ctx["blas_env"].items()),
    ]
    n = s["attempted"]
    e = s["e2e"]
    lines += [
        f"  setup_s      {e['setup_s']:.4f} s   median of {len(s['setups_s'])} "
        "fresh interpreters",
        f"  solve_s      {e['solve_s']:.4f} s   median of {n} ops",
        f"  cpu_s        {e['cpu_s']:.4f} s   median of {n} ops, user+system",
        f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB",
        f"  fail_ratio   {s['failed'] / n:.4g} ratio   {s['failed']} of {n} ops",
    ]
    if s["drift"] is not None:
        lines.append(f"  result_drift {s['drift']:.3g} ratio   efficiency and overlap "
                     f"against the pinned seed values (limit {MAX_DRIFT:g})")
    failures = [f"op {o['op']}: {f}" for o in s["ops"] for f in o["failures"]]
    lines += [f"  FAILED {f}" for f in failures[:10]]
    if s["mismatches"]:
        lines.append(f"  TRACED OP MISMATCH on ops {s['mismatches']}")
    if s["trace"]:
        lines += [f"  {k:28s} {v:.6g} {LAYER_UNITS[k]}" for k, v in s["layers"].items()]
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in s["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e.items()}
    lines.append(json.dumps({"correct": s["correct"], "attempted": n,
                             "failed": s["failed"], "metrics": metrics}))
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measured time per workload; the whole workload, set-ups "
                        "included, is killed after 60 + 4 x this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "memspin", "__init__.py")):
        print("error: run from the repository root; src/memspin not found", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        deadline = time.monotonic() + time_limit_s(args.seconds)
        try:
            summary = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                   deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(report(summary), flush=True)
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
