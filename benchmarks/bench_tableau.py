"""Benchmark: the stabilizer tableau, and one one-time-program evaluation.

    PYTHONPATH=src python3 benchmarks/bench_tableau.py

Each row repeats its seeded gates and its seeded measurements until each
has run ``MIN_SECONDS``.  The gate and measure columns scramble the tableau
with random gates, so a random measurement's pivot rows are dense; the
block-measure column measures protocol-shaped 21-qubit encoded blocks one
block at a time, where the pivot rows cover a few columns.  Every call is a
``TableauState`` call, as a protocol run makes it.
"""

import sys
import time
from functools import partial

import numpy as np

from qotp_lab.backends import TableauState


MIN_SECONDS = 0.5  # each row repeats its seeded ops until it ran this long


def repeat_rate(ops: int, make_pass) -> float:
    """Ops per second over passes of ``ops`` ops, repeated until they have
    run MIN_SECONDS; ``make_pass()`` is not timed and returns the pass."""
    done, elapsed = 0, 0.0
    while elapsed < MIN_SECONDS:
        run = make_pass()
        t0 = time.perf_counter()
        run()
        elapsed += time.perf_counter() - t0
        done += ops
    return done / elapsed


def apply_gates(state, gates) -> None:
    for gate in gates:
        state.apply_gate(*gate)


class Draw:
    """An rng stub whose ``integers`` returns the current shot's bit."""

    bit = 0

    def integers(self, lo, hi):
        return self.bit


def measure_shots(state, shots) -> None:
    draw = Draw()
    for q, bit in shots:  # one call each; ``bit`` is used if random
        draw.bit = bit
        state.measure(q, draw)


def bench_kernel(n: int, gate_ops: int, measurements: int,
                 seed: int) -> tuple[float, float]:
    """(gates/s, measurements/s) of the tableau at ``n`` qubits.

    Gate cost does not depend on the state, so the gate passes continue on
    one state.  Every measurement pass starts from a copy of the state the
    first gate pass left, so each pass sees the same mix of random and
    deterministic outcomes.
    """
    rng = np.random.default_rng(seed)
    state = TableauState(n)
    gates = []
    for _ in range(gate_ops):
        kind = int(rng.integers(0, 4))
        if kind == 3:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", int(c), int(t)))
        else:
            gates.append(("HKX"[kind], int(rng.integers(0, n))))
    targets = [int(q) for q in rng.integers(0, n, size=measurements)]
    bits = [int(b) for b in rng.integers(0, 2, size=measurements)]
    shots = list(zip(targets, bits))
    apply_gates(state, gates)
    start = state.copy()
    return (repeat_rate(gate_ops, lambda: partial(apply_gates, state, gates)),
            repeat_rate(measurements,
                        lambda: partial(measure_shots, start.copy(), shots)))


BLOCK = 21  # one trap-code register at Steane scale: 7 base qubits, 14 traps


def encoded_blocks(state, n: int, rng) -> list[tuple[int, int]]:
    """Prepare protocol-shaped 21-qubit blocks on ``state`` and return the
    seeded (qubit, bit) shots that measure them one block at a time.

    Each block, in a seeded order, is a CNOT fan from its first qubit onto
    six others (an encoded register), seven |0> traps and seven |+> traps;
    blocks are then coupled in pairs by a transversal CNOT, as teleportation
    couples a register to its resource."""
    blocks = [[int(q) for q in rng.permutation(range(s, s + BLOCK))]
              for s in range(0, n - BLOCK + 1, BLOCK)]
    for block in blocks:
        state.apply_gate("H", block[0])
        for q in block[1:7]:
            state.apply_gate("CNOT", block[0], q)
        for q in block[14:]:
            state.apply_gate("H", q)
    for a, b in zip(blocks[0::2], blocks[1::2]):
        for qa, qb in zip(a, b):
            state.apply_gate("CNOT", qa, qb)
    order = [q for block in blocks for q in block]
    bits = [int(b) for b in rng.integers(0, 2, size=len(order))]
    return list(zip(order, bits))


def bench_blocks(n: int, seed: int) -> float:
    """Measurements/s over every encoded block at ``n`` qubits; each pass
    starts from a copy of the prepared state."""
    start = TableauState(n)
    shots = encoded_blocks(start, n, np.random.default_rng(seed))
    return repeat_rate(len(shots),
                       lambda: partial(measure_shots, start.copy(), shots))


def bench_protocol(seed: int):
    """One Steane-scale one-time-program evaluation on the tableau."""
    from qotp_lab.css import build_steane
    from qotp_lab.qotp import honest_receiver_run

    t0 = time.perf_counter()
    res, _ = honest_receiver_run([("Y", 0)], 0, 1, build_steane(), seed,
                                 b_labels=("+",), backend="tab",
                                 transport="direct")
    assert res.accepted
    return time.perf_counter() - t0


def main() -> int:
    print(f"{'qubits':>7} {'gates/s':>12} {'measure/s':>12} "
          f"{'block-measure/s':>16}")
    for n in (24, 64, 256, 1024):
        ops = 4000 if n <= 256 else 1500
        meas = 400 if n <= 256 else 150
        gates_s, measure_s = bench_kernel(n, ops, meas, seed=7)
        blocks_s = bench_blocks(n, seed=7)
        print(f"{n:>7} {gates_s:>12.0f} {measure_s:>12.0f} "
              f"{blocks_s:>16.0f}")
    times = [bench_protocol(1000 + i) for i in range(5)]
    print("one-time program evaluation (Steane, tableau backend): "
          f"{min(times) * 1000:.2f} ms best of 5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
