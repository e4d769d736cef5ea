"""One fresh interpreter of the benchmark: set a workload up, then run its ops.

Started by run.py with the repository's ``src`` on PYTHONPATH:

    python3 benchmarks/worker.py --workload NAME --seed N --work-dir DIR
        --seconds S [--trace 0|1] [--setup-only]

It prints ``READY <json>`` as soon as the first op could start, and unless
--setup-only, runs ops until --seconds have passed (at least one op), then
prints ``RESULT <json>``.  With --trace 1 each op is run a second time with
the tracer's patches in place, and that traced op's outputs must match the
untraced op's bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy

from layers import op_metrics
from memspin.core import MemspinError
from tracing import Tracer
from workloads import PATCHES, WORKLOADS, OpFailed


def cpu_seconds() -> float:
    """User plus system CPU of this process and its children (os.times ticks too coarsely)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def clear(path) -> int:
    """Delete the op's artifacts and return how many bytes they held."""
    total = 0
    for name in os.listdir(path):
        full = os.path.join(path, name)
        total += os.path.getsize(full)
        os.remove(full)
    return total


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def run_op(wl, k, inp, out_dir) -> tuple[dict, dict | None]:
    """Time one op, then check its outputs; returns (record, outputs)."""
    failures, outputs = [], None
    gc.collect()
    w0, c0 = time.perf_counter(), cpu_seconds()
    try:
        raw = wl.run(inp, out_dir)
    except (MemspinError, OpFailed) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    rec = {"op": k, "solve_s": time.perf_counter() - w0, "cpu_s": cpu_seconds() - c0}
    if not failures:
        outputs = wl.collect(inp, out_dir, raw)
        failures = wl.check(inp, outputs)
        drift = wl.drift(outputs)
        if drift is not None:
            rec["drift"] = drift
    rec["artifact_bytes"] = clear(out_dir)
    rec["failures"] = failures
    return rec, outputs


def traced_op(wl, k, inp, out_dir, tr, outputs, rec) -> bool:
    """Run the op again under the tracer; True when its outputs match bit for bit."""
    tr.op = k
    gc.collect()
    t0 = time.perf_counter()
    try:
        with tr.patching(PATCHES):
            raw = wl.run(inp, out_dir)
    except (MemspinError, OpFailed) as exc:
        rec["traced_s"] = time.perf_counter() - t0
        rec["traced_error"] = f"{type(exc).__name__}: {exc}"
        clear(out_dir)
        return False
    rec["traced_s"] = time.perf_counter() - t0
    same = (json.dumps(wl.collect(inp, out_dir, raw), sort_keys=True)
            == json.dumps(outputs, sort_keys=True))
    clear(out_dir)
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracing = bool(args.trace)
    tr = Tracer()
    wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    with tr.patching(PATCHES if tracing else ()):
        wl.setup()
    emit("READY", {"python": platform.python_version(), "numpy": numpy.__version__,
                   "scipy": scipy.__version__})
    if args.setup_only:
        return 0

    cli_dir = os.path.join(args.work_dir, "cli")
    traced_dir = os.path.join(args.work_dir, "traced")
    os.makedirs(cli_dir)
    os.makedirs(traced_dir)
    ops, mismatches, per_op = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        inp = wl.make_input(k)
        rec, outputs = run_op(wl, k, inp, cli_dir)
        if tracing and not rec["failures"]:
            if not traced_op(wl, k, inp, traced_dir, tr, outputs, rec):
                mismatches.append(k)
            m = op_metrics(tr.spans, k)
            m["cli.artifact_mb"] = rec["artifact_bytes"] / 1e6
            per_op.append(m)
        ops.append(rec)
        k += 1

    result = {"ops": ops, "mismatches": mismatches,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracing:
        layers = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]} \
            if per_op else {}
        layers["fock.ns_derive_s"] = sum(s["end"] - s["start"] for s in tr.spans
                                         if s["op"] == "setup" and s["name"] == "fock.ns_gate")
        layers.update(wl.microbench())
        traced = [o["traced_s"] for o in ops if "traced_s" in o]
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(o["solve_s"] for o in ops)
                                      if traced else 0.0)
        result.update(layers=layers, spans=tr.spans)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
