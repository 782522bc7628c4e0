"""qotp-lab end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: attack, trap-mc, enum, honest
(see ``perfbench/README.md``). Each runs in its own fresh process with
``QOTP_LAB_THREADS`` unset, one client in a closed loop.

``--trace 0`` reports the end-to-end metrics: ``work_per_s`` (the
workload's unit of work per second), ``peak_rss_mb`` and ``setup_s`` (the
median over several fresh processes of the time from process start to the
first timed operation). Times are scaled to a fixed machine speed, measured
by ``reference.py`` next to each; the unscaled rate is printed too.
``--trace 1`` reports the per-layer metrics of a separate traced run.

Before the result the command prints what ran, the hash of the canonical
outputs and every metric by name with its unit; the last line is the JSON
result. It exits 0 with a result, and 1 or 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, speed_sample

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def spawn(args, deadline: float, setup_only: bool = False):
    """Run the worker to completion; returns its JSON and its set-up time
    scaled to the reference speed, measured just before it started."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "QOTP_LAB_THREADS"}
    speed = speed_sample()
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    return out, (out["ready"] - started) * NOMINAL_S / speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("attack", "trap-mc", "enum", "honest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny operations, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "qotp_lab", "__init__.py")):
        print("perfbench: run from the repository root; src/qotp_lab is "
              "missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, deadline, setup_only=True)[1])
        out, setup = spawn(args, deadline)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in out["layers"].items()}
    else:
        metrics = {
            "work_per_s": {"value": out["work"] / out["busy_ref_s"],
                           "unit": "1/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"what_ran": out["what_ran"],
                      "outputs_sha256": out["outputs_sha256"],
                      "ops_hashed": out["ops_hashed"],
                      "unit_of_work": out["unit"]}))
    if out["aggregate_message"]:
        print("check:", out["aggregate_message"])
    info = {"error_rate": (out["failed"] / out["attempted"], "ratio"),
            "unscaled_work_per_s": (out["work"] / out["busy_s"], "1/s"),
            "op_ms_p50": (out["op_ms_p50"], "ms")}
    for key, value in out.items():
        if key.startswith("op_ms_p") and key != "op_ms_p50":
            info[key] = (value, "ms")
    for part, (work, secs) in sorted(out["parts"].items()):
        info[f"{part}.per_s"] = (work / secs if secs else 0.0, "1/s")
    for name, (value, unit) in info.items():
        print(f"info {name} {value} {unit}")
    print(f"info ops {out['ops']} count")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": out["correct"],
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
