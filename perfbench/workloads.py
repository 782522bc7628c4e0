"""The four benchmark workloads.

A workload builds its inputs from the benchmark seed and runs a fixed
round of steps in turn; a run ends only after a whole round, so every run
does the same mix. Step ``i`` is step ``steps[i % len(steps)]`` of round
``i // len(steps)`` and depends only on the seed and ``i``, so a traced
re-run of the same indices does identical work. Each step has two halves:

- ``op(i)`` is the timed part. It calls the library entry points a user
  calls (``harness.run_experiment``, ``QotpInstance``, the trap sweep
  functions) and returns their raw outputs.
- ``check(i, raw)`` is untimed and untraced. It applies the benchmark's
  own correctness check and returns an ``OpResult``.

Why each workload exists, and which layers it loads or bypasses, is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qotp_lab import harness, qotp, trap
from qotp_lab import rng as rngmod
from qotp_lab.css import build_steane
from qotp_lab.paulis import PauliOperator


@dataclass
class OpResult:
    work: int                # units of work done, in the workload's unit
    record: str              # canonical text of the outputs, for hashing
    ok: bool                 # the benchmark's own check passed
    why: str = ""            # reason for a failed check
    rejected: bool = False   # attack only: the verifier caught the run


def binomial_tails(hits: int, trials: int, p: float) -> tuple[float, float]:
    """(P[X <= hits], P[X >= hits]) for X ~ Binomial(trials, p), 0 < p < 1."""
    logs = [math.lgamma(trials + 1) - math.lgamma(k + 1)
            - math.lgamma(trials - k + 1) + k * math.log(p)
            + (trials - k) * math.log1p(-p) for k in range(trials + 1)]
    return (sum(math.exp(v) for v in logs[:hits + 1]),
            sum(math.exp(v) for v in logs[hits:]))


def consistent(hits: int, trials: int, p: float, alpha: float) -> bool:
    """Two-sided exact test: an honest estimate of p fails it with
    probability at most alpha."""
    return min(binomial_tails(hits, trials, p)) > alpha / 2


class Workload:
    unit = ""
    steps: tuple = ()
    hashed_rounds = 1    # every run does these; outputs_sha256 covers them
    traced_rounds = 1    # rounds of the traced run

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def min_ops(self) -> int:
        return self.hashed_rounds * len(self.steps)

    @property
    def trace_ops(self) -> int:
        return self.traced_rounds * len(self.steps)

    def step(self, i: int) -> tuple[int, int]:
        """(step number within the round, seed of the round)."""
        n = len(self.steps)
        return i % n, self.seed * 1_000_003 + i // n

    def finish(self, results: list) -> tuple[bool, str]:
        """A check over the whole run's passing results."""
        return True, ""


# ---------------------------------------------------------------------------
# attack: criterion-7 keyed runs
# ---------------------------------------------------------------------------

class Attack(Workload):
    """One keyed Steane-trap run of the Y channel with X on three qubits of
    magic register M0, tableau backend, direct transport: exactly run ``i``
    of ``qotp-attack`` at this seed."""

    unit = "keyed runs"
    steps = ("run",)
    hashed_rounds = 20
    traced_rounds = 200
    # 35 placements put all three X's on |+> traps and 7 hit a weight-3
    # Hamming word; every other placement of 3 among 21 qubits is caught.
    EXACT_REJECT = Fraction(math.comb(21, 3) - 35 - 7, math.comb(21, 3))
    ALPHA = 1e-4   # the chance that an honest run fails the rate check

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.base = build_steane()
        self.program = qotp.compile_controlled_program([("Y", 0)], 0, 1)
        self.attack = PauliOperator.from_masks(3 * self.base.n, 0b111, 0)
        if tiny:
            self.hashed_rounds = self.traced_rounds = 2

    def op(self, i: int):
        inst = qotp.QotpInstance(self.program, self.base,
                                 self.seed * 131071 + i, world="real",
                                 backend="tab", transport="direct")
        adversary = qotp.PauliAttackAdversary(
            initial_attacks=[("M0", self.attack)])
        return inst, inst.run(adversary)

    def check(self, i: int, raw) -> OpResult:
        inst, res = raw
        verdict = trap.classify_pauli_attack(inst.trap, self.attack).verdict
        # an X-only attack is caught exactly when its placement is rejected
        ok = res.cheated == (verdict == "reject") and \
            res.accepted != res.cheated
        record = harness.canonical_json({
            "seed": inst.seed, "cheated": res.cheated, "t_in": res.t_in,
            "records": res.records, "replies": res.replies,
            "t_out": res.t_out, "s_hat": res.s_hat})
        why = "" if ok else f"verdict {verdict}, cheated {res.cheated}"
        return OpResult(1, record, ok, why=why, rejected=res.cheated)

    def finish(self, results: list) -> tuple[bool, str]:
        """Two-sided check of the rejection rate against its exact value."""
        if not results:
            return True, ""
        rejects = sum(r.rejected for r in results)
        exact = float(self.EXACT_REJECT)
        ok = consistent(rejects, len(results), exact, self.ALPHA)
        return ok, (f"rejection rate {rejects}/{len(results)} vs exact "
                    f"{exact:.6f}, two-sided exact test at {self.ALPHA}: "
                    f"{'pass' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# trap-mc: trap-layer Monte Carlo, sampling-heavy and classification-heavy
# ---------------------------------------------------------------------------

class TrapMc(Workload):
    """``sweep``: the criterion-3 shape, 25 weight-3 X attacks judged on
    one shared set of sampled permutations plus the weight-7 placement
    estimate, 26 classifications per sampled permutation. ``exhaustive``:
    the criterion-2 weight<=2 sweep, 1,953 classifications per permutation.

    The sweep calls the trap functions the ``trap-security`` command calls,
    not the command: its ``placement_exact_in_ci`` check is a 95% interval
    that fails one honest call in twenty."""

    unit = "trap classifications"
    steps = ("sweep", "exhaustive")
    traced_rounds = 2
    ATTACKS = 25
    WEIGHT = 3
    # exact nontrivial-accept probability of weight-w X attacks: the
    # pattern's base part must be a logical-X coset word (7 words of
    # weight 3, 1 of weight 7), the rest lands on |+> traps
    EXACT_EPS = {3: Fraction(7, math.comb(21, 3)),
                 7: Fraction(7 * math.comb(7, 4) + 1, math.comb(21, 7))}
    ALPHA = 1e-9   # 26 estimates per step, hundreds per run

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.base = build_steane()
        self.samples, self.permutations = (50, 2) if tiny else (2000, 100)
        if tiny:
            self.traced_rounds = 1
        self.placement = PauliOperator.from_masks(
            3 * self.base.n, (1 << self.base.n) - 1, 0)

    def op(self, i: int):
        k, s = self.step(i)
        if k == 0:
            rows = trap.security_sweep_rows(
                self.base, self.WEIGHT, self.ATTACKS, self.samples,
                rngmod.stream(s, "trap-security"))
            return rows + [trap.estimate_attack_security(
                self.base, self.placement, self.samples,
                rngmod.stream(s, "trap-security-exact"))]
        report, _ = harness.run_experiment(
            "trap-distance", {"seed": s, "permutations": self.permutations})
        return report

    def check(self, i: int, raw) -> OpResult:
        if self.step(i)[0] == 1:
            per_perm = raw.extra["attacks_per_permutation"]
            ok = raw.all_pass and per_perm == 1953
            return OpResult(self.permutations * per_perm, raw.to_canonical(),
                            ok, why="" if ok else raw.to_canonical())
        bad = []
        for est in raw:
            hits = round(est.eps_hat * est.samples)
            exact = float(self.EXACT_EPS[est.weight])
            if not consistent(hits, est.samples, exact, self.ALPHA):
                bad.append(f"{est.attack}: {hits}/{est.samples} "
                           f"off exact {exact}")
        bound = (2 / 3) ** (self.WEIGHT / 2)
        if max(est.ci_hi for est in raw) > bound:
            bad.append(f"a ci_hi above the (2/3)^1.5 bound {bound}")
        return OpResult(self.samples * len(raw),
                        trap.sweep_to_csv(raw, self.base), not bad,
                        why="; ".join(bad))


# ---------------------------------------------------------------------------
# enum: exact real-vs-simulated branch enumeration on the toy code
# ---------------------------------------------------------------------------

class Enum(Workload):
    """The exact ``data-attack`` sim-compare case on the toy code through
    ``run_experiment``: the X channel with the data register attacked,
    every permutation and one-time-pad coset enumerated in both worlds,
    30,720 leaves in about 2.5 s.

    The ``magic-attack`` case is left out. All of it (491,520 leaves, about
    40 s) does not fit a run, and one permutation of it is a single step of
    5 to 10 s, which the reference speed tracks too badly for a steady
    rate."""

    unit = "sim-compare cases"
    steps = ("data-attack",)

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        if tiny:
            self.steps = ("dummy",)
        qotp.compile_controlled_program([("X", 0)], 0, 1)

    def op(self, i: int):
        report, _ = harness.run_experiment(
            "sim-compare", {"seed": self.step(i)[1], "cases": [self.steps[0]]})
        return report

    def check(self, i: int, raw) -> OpResult:
        # the simulator reproduces a data-register attack exactly
        ok = raw.all_pass and all(c["value"] <= 1e-9 for c in raw.checks)
        return OpResult(1, raw.to_canonical(), ok,
                        why="" if ok else raw.to_canonical())


# ---------------------------------------------------------------------------
# honest: qotp-run over every backend, BrOTP transport
# ---------------------------------------------------------------------------

_S = 1 / math.sqrt(2)
_STATES = {"0": [1, 0], "1": [0, 1], "+": [_S, _S], "-": [_S, -_S],
           "+i": [_S, 1j * _S], "-i": [_S, -1j * _S]}
_GATES = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]],
          "Z": [[1, 0], [0, -1]], "H": [[_S, _S], [_S, -_S]],
          "K": [[1, 0], [0, 1j]], "T": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
          "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]}


def expected_output(channel, labels) -> np.ndarray:
    """The ideal output state, from the benchmark's own dense model
    (qubit 0 most significant). Each case here is one gate on all wires."""
    vec = np.array([1.0 + 0j])
    for label in labels:
        vec = np.kron(vec, _STATES[label])
    for gate in channel:
        vec = np.array(_GATES[gate[0]], dtype=complex) @ vec
    return vec


class Honest(Workload):
    """A round of ``qotp-run`` over six cases, all BrOTP transport: the
    five criterion-6 cases, plus the Y channel on the tableau at distance 9
    (concatenated Steane, 884 live qubits)."""

    unit = "qotp-run runs"
    CASES = {
        # step: channel, input labels, backend, (base code, levels)
        "X-tab": ([["X", 0]], ["+i"], "tab", ("steane", 1)),
        "K-sum": ([["K", 0]], ["+"], "sum", ("steane", 1)),
        "H-sum": ([["H", 0]], ["1"], "sum", ("steane", 1)),
        "CNOT-sum": ([["CNOT", 0, 1]], ["1", "0"], "sum", ("steane", 1)),
        "T-sv": ([["T", 0]], ["+"], "sv", ("toy", 1)),
        "Y-tab-d9": ([["Y", 0]], ["+"], "tab", ("steane", 2)),
    }

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.steps = tuple(self.CASES)[:2] if tiny else tuple(self.CASES)
        for name in self.steps:
            channel, labels, _, _ = self.CASES[name]
            qotp.compile_controlled_program(
                [tuple(g) for g in channel], 0, len(labels))

    def op(self, i: int):
        k, s = self.step(i)
        channel, labels, backend, (base, levels) = \
            self.CASES[self.steps[k]]
        report, _ = harness.run_experiment("qotp-run", {
            "seed": s, "channel": channel, "n_b": len(labels),
            "b_labels": labels, "backend": backend,
            "code": {"base": base, "levels": levels},
            "transport": "brotp", "kappa": 16})
        return report

    def check(self, i: int, raw) -> OpResult:
        channel, labels, _, _ = self.CASES[self.steps[self.step(i)[0]]]
        want = expected_output(channel, labels)
        rho = np.array(raw.extra.get("output_density", []))
        fid = 0.0
        if rho.shape == (len(want), len(want), 2):
            rho = rho[..., 0] + 1j * rho[..., 1]
            fid = float(np.real(want.conj() @ rho @ want))
        ok = raw.all_pass and raw.extra["accepted"] and fid >= 1 - 1e-9
        return OpResult(1, raw.to_canonical(), ok,
                        why=f"fidelity {fid!r}, all_pass {raw.all_pass}")


WORKLOADS = {"attack": Attack, "trap-mc": TrapMc, "enum": Enum,
             "honest": Honest}
