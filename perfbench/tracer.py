"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each ``qotp_lab`` layer from outside
the package. Every wrapped call adds to aggregate counters kept per
boundary: calls, busy time (inclusive, outermost call only) and self time
(minus the wrapped calls it made). Observers count what a call returned,
such as random measurements or enumerated leaves. Hot boundaries, such as
``trap.classify_masks`` with millions of calls, keep only these counters;
a few low-frequency boundaries also record spans, held in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_index = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.spans = []    # (id, name, start, end, parent id, op index)
        self._stack = []   # [child seconds, span id or None] per open call
        self._next_span = 0
        self._depth = defaultdict(int)

    def wrap(self, name, fn, observe=None, span=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = None
            parent = None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
            frame = [0.0, span_id]
            depth = tracer._depth[name]
            tracer._depth[name] = depth + 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer._depth[name] = depth
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[0]
                if depth == 0:
                    tracer.busy[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    tracer.spans.append((span_id, name, start,
                                         start + elapsed, parent,
                                         tracer.op_index))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def peak(self, name, value):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def span_ms(self, name):
        return sorted((end - start) * 1e3
                      for _, n, start, end, _, _ in self.spans if n == name)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _tableau_measure(t, args, result):
    t.counts["tableau.measure.random"] += result[1] == 0.5
    t.peak("tableau.max_qubits", args[0].n)


def _tableau_gate(t, args, result):
    t.peak("tableau.max_qubits", args[0].n)


def _stabsum_terms(t, args, result):
    t.peak("stabsum.peak_terms", args[0].num_terms)


def _branches(t, args, result):
    t.counts["statevector.branches"] += len(result)


def _run_result(t, args, result):
    t.counts["qotp.outcomes"] += 1
    t.counts["qotp.rejected"] += bool(result.cheated)


def _leaves(t, args, result):
    t.counts["qotp.leaves"] += len(result)
    t.counts["qotp.outcomes"] += len(result)
    t.counts["qotp.rejected"] += sum(bool(r.cheated) for r in result)


def _verdict(t, args, result):
    t.counts["trap.classify_masks.reject"] += result[0] == "reject"


def targets():
    """(owner, attribute, boundary name, observer, records spans)."""
    from qotp_lab import cotp, gadgets, harness, qotp, trap
    from qotp_lab import rng as rngmod
    from qotp_lab.backends import StabilizerSum, StateVector, TableauState

    return [
        (TableauState, "measure", "tableau.measure", _tableau_measure, False),
        (TableauState, "apply_gate", "tableau.apply_gate", _tableau_gate,
         False),
        (TableauState, "density_of", "tableau.density_of", None, False),
        (StabilizerSum, "apply_gate", "stabsum.apply_gate", _stabsum_terms,
         False),
        (StabilizerSum, "measure", "stabsum.measure", _stabsum_terms, False),
        (StabilizerSum, "density_of", "stabsum.density_of", None, False),
        (StabilizerSum, "inject_magic", "stabsum.inject_magic",
         _stabsum_terms, False),
        (StateVector, "joint_outcomes", "statevector.joint_outcomes",
         _branches, False),
        (StateVector, "apply_gate", "statevector.apply_gate", None, False),
        (StateVector, "density_of", "statevector.density_of", None, False),
        (gadgets.AuthSession, "measure_register", "gadgets.measure_register",
         None, False),
        (gadgets.AuthSession, "materialize", "gadgets.materialize", None,
         False),
        (gadgets.AuthSession, "transversal_cnot_physical",
         "gadgets.transversal_cnot_physical", None, False),
        (qotp.QotpInstance, "__init__", "qotp.instance_init", None, False),
        (qotp.QotpInstance, "run", "qotp.run", _run_result, True),
        (qotp.QotpInstance, "clone", "qotp.clone", None, False),
        (qotp.QotpVerifier, "finalize", "qotp.finalize", None, False),
        (qotp.QotpVerifier, "process_round", "qotp.process_round", None,
         False),
        (qotp, "enumerate_protocol_runs", "qotp.enumerate_protocol_runs",
         _leaves, True),
        (qotp, "compare_real_vs_sim", "qotp.compare_real_vs_sim", None, True),
        (cotp.BrOtpProgram, "query", "cotp.query", None, False),
        (trap, "sample_trap_code", "trap.sample_trap_code", None, False),
        (trap, "classify_masks", "trap.classify_masks", _verdict, False),
        (rngmod, "stream", "rng.stream", None, False),
        (harness, "run_experiment", "harness.run_experiment", None, True),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every target. A module function is replaced in every loaded
    ``qotp_lab`` module that imported it by name."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "qotp_lab" or n.startswith("qotp_lab.")]
    for owner, attr, name, observe, span in targets():
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, observe, span)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(t: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    c, b, s = t.calls, t.busy, t.self_s
    run_ms = t.span_ms("qotp.run")
    return {
        "tableau.measure.calls": (c["tableau.measure"], "count"),
        "tableau.measure.busy_s": (b["tableau.measure"], "s"),
        "tableau.measure.per_s": (_ratio(c["tableau.measure"],
                                         b["tableau.measure"]), "1/s"),
        "tableau.measure.random_ratio": (
            _ratio(t.counts["tableau.measure.random"], c["tableau.measure"]),
            "ratio"),
        "tableau.apply_gate.calls": (c["tableau.apply_gate"], "count"),
        "tableau.apply_gate.busy_s": (b["tableau.apply_gate"], "s"),
        "tableau.density_of.busy_s": (b["tableau.density_of"], "s"),
        "tableau.max_qubits": (t.peaks["tableau.max_qubits"], "qubits"),
        "stabsum.apply_gate.busy_s": (b["stabsum.apply_gate"], "s"),
        "stabsum.measure.busy_s": (b["stabsum.measure"], "s"),
        "stabsum.density_of.busy_s": (b["stabsum.density_of"], "s"),
        "stabsum.inject_magic.calls": (c["stabsum.inject_magic"], "count"),
        "stabsum.peak_terms": (t.peaks["stabsum.peak_terms"], "terms"),
        "statevector.joint_outcomes.calls": (
            c["statevector.joint_outcomes"], "count"),
        "statevector.joint_outcomes.busy_s": (
            b["statevector.joint_outcomes"], "s"),
        "statevector.branches": (t.counts["statevector.branches"], "count"),
        "statevector.apply_gate.busy_s": (b["statevector.apply_gate"], "s"),
        "statevector.density_of.busy_s": (b["statevector.density_of"], "s"),
        "gadgets.measure_register.self_s": (s["gadgets.measure_register"],
                                            "s"),
        "gadgets.materialize.self_s": (s["gadgets.materialize"], "s"),
        "gadgets.transversal_cnot_physical.self_s": (
            s["gadgets.transversal_cnot_physical"], "s"),
        "qotp.instance_init.busy_s": (b["qotp.instance_init"], "s"),
        "qotp.run.ms_p50": (_percentile(run_ms, 50), "ms"),
        "qotp.run.ms_p95": (_percentile(run_ms, 95), "ms"),
        "qotp.run.self_s": (s["qotp.run"], "s"),
        "qotp.reject_ratio": (_ratio(t.counts["qotp.rejected"],
                                     t.counts["qotp.outcomes"]), "ratio"),
        "qotp.clone.calls": (c["qotp.clone"], "count"),
        "qotp.clone.busy_s": (b["qotp.clone"], "s"),
        "qotp.finalize.calls": (c["qotp.finalize"], "count"),
        "qotp.finalize.busy_s": (b["qotp.finalize"], "s"),
        "qotp.process_round.calls": (c["qotp.process_round"], "count"),
        "qotp.leaves": (t.counts["qotp.leaves"], "count"),
        "cotp.query.calls": (c["cotp.query"], "count"),
        "cotp.query.busy_s": (b["cotp.query"], "s"),
        "trap.sample_trap_code.calls": (c["trap.sample_trap_code"], "count"),
        "trap.sample_trap_code.busy_s": (b["trap.sample_trap_code"], "s"),
        "trap.classify_masks.calls": (c["trap.classify_masks"], "count"),
        "trap.classify_masks.busy_s": (b["trap.classify_masks"], "s"),
        "trap.reject_ratio": (_ratio(t.counts["trap.classify_masks.reject"],
                                     c["trap.classify_masks"]), "ratio"),
        "rng.stream.calls": (c["rng.stream"], "count"),
        "rng.stream.busy_s": (b["rng.stream"], "s"),
        "harness.run_experiment.self_s": (s["harness.run_experiment"], "s"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    }
