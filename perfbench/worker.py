"""One workload in a fresh process; started by ``perfbench/run.py``.

Prints one JSON line. With ``--setup-only`` it sets up and reports when it
was ready. Otherwise it runs the closed loop, one client, where operation
``i + 1`` starts when operation ``i`` returns:

- untraced (``--trace 0``): at least ``min_ops`` operations, until
  ``--seconds`` have passed and a round of steps is complete;
- traced (``--trace 1``): a fixed ``trace_ops`` operations untraced, then
  the same operations again with every layer wrapped, so the count metrics
  repeat exactly for a seed and the two scaled times give the overhead.

Must be started from the repository root, which holds ``src/qotp_lab``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import qotp_lab  # noqa: E402
from qotp_lab.backends import KERNEL  # noqa: E402

import tracer as tracing  # noqa: E402
from reference import NOMINAL_S, speed_sample  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

REF_EVERY_S = 1.0


def run_ops(workload, seconds: float, count: int | None = None,
            tracer=None) -> list[tuple[OpResult, float, float]]:
    """The closed loop. Returns per operation its result, its seconds, and
    its seconds scaled to the reference machine speed: the mean of the two
    speed samples taken last before it and the two taken first after it."""
    out = []
    speeds = [speed_sample(), speed_sample()]
    last_ref = time.perf_counter()
    start = last_ref
    i = 0
    while (i < count if count is not None else
           i < workload.min_ops or i % len(workload.steps)
           or time.perf_counter() - start < seconds):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            speeds.append(speed_sample())
            last_ref = time.perf_counter()
        if tracer is not None:
            tracer.op_index = i
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            raw = workload.op(i)
        except Exception:  # a failed operation is counted, the loop goes on
            raw = traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if isinstance(raw, str):
            res = OpResult(0, "", False, why=raw)
        else:
            try:
                res = workload.check(i, raw)
            except Exception:
                res = OpResult(0, "", False, why=traceback.format_exc())
        if not res.ok:
            print(f"operation {i} failed: {res.why}", file=sys.stderr)
        out.append((res, dt, len(speeds)))
        i += 1
    speeds += [speed_sample(), speed_sample()]
    return [(res, dt, dt * NOMINAL_S / statistics.mean(speeds[k - 2:k + 2]))
            for res, dt, k in out]


def outputs_sha256(results, n: int) -> str:
    digest = hashlib.sha256()
    for res, _, _ in results[:n]:
        digest.update(res.record.encode())
    return digest.hexdigest()


def latency(results) -> dict:
    """Median operation time and the highest percentile with at least ten
    samples beyond it, in ms."""
    ms = sorted(dt * 1e3 for _, dt, _ in results)
    out = {"ops": len(ms), "op_ms_p50": ms[(len(ms) - 1) // 2]}
    if len(ms) >= 20:
        q = int(100 * (1 - 10 / len(ms)))
        out[f"op_ms_p{q}"] = ms[-(-q * len(ms) // 100) - 1]
    return out


def summarize(workload, results) -> dict:
    """Totals over a run; per-step rates use reference-speed seconds."""
    ok = [res for res, _, _ in results if res.ok]
    parts = {}
    for i, (res, _, scaled) in enumerate(results):
        acc = parts.setdefault(workload.steps[i % len(workload.steps)],
                               [0, 0.0])
        acc[0] += res.work if res.ok else 0
        acc[1] += scaled
    checked, message = workload.finish(ok)
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "aggregate_check": checked,
        "aggregate_message": message,
        "work": sum(res.work for res in ok),
        "busy_s": sum(dt for _, dt, _ in results),
        "busy_ref_s": sum(scaled for _, _, scaled in results),
        "parts": parts,
        **latency(results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        plain = run_ops(workload, args.seconds, workload.trace_ops)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_ops(workload, args.seconds, workload.trace_ops, tracer)
        same = [a[0].record for a in plain] == [b[0].record for b in traced]
        results = plain + traced
        out.update(summarize(workload, plain))
        out["attempted"] = len(results)
        out["failed"] = sum(not res.ok for res, _, _ in results)
        out["traced_outputs_match"] = same
        out["layers"] = tracing.layer_metrics(
            tracer, sum(r[2] for r in plain), sum(r[2] for r in traced))
        out["trace_file"] = write_trace(args, tracer)
    else:
        results = run_ops(workload, args.seconds)
        out.update(summarize(workload, results))
        same = True
    out["correct"] = (out["failed"] == 0 and out["aggregate_check"]
                      and same)
    out["outputs_sha256"] = outputs_sha256(results, workload.min_ops)
    out["ops_hashed"] = workload.min_ops
    out["unit"] = workload.unit
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["what_ran"] = {
        "workload": args.workload, "seed": args.seed,
        "kernel": KERNEL, "version": qotp_lab.__version__,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "qotp_lab_threads": os.environ.get("QOTP_LAB_THREADS", "unset"),
        "clients": 1, "tiny": args.tiny,
    }
    print(json.dumps(out))
    return 0


def write_trace(args, tracer) -> str:
    """Spans and counters of the traced operations, as JSON."""
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out",
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"spans": [dict(zip(("id", "name", "start", "end",
                                       "parent", "op"), s))
                             for s in tracer.spans],
                   "calls": tracer.calls, "busy_s": tracer.busy,
                   "self_s": tracer.self_s, "counts": tracer.counts,
                   "peaks": tracer.peaks}, fh)
    return path


if __name__ == "__main__":
    sys.exit(main())
