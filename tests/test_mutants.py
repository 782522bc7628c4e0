"""The mutant table: each row plants one bug in-process and names the
report checks that must read FAIL under it.

A check that stays green whatever the code does shows nothing; a row here
is the evidence that its checks see the bug they are named for. Each row
replaces one module or class attribute with ``monkeypatch`` and runs a
command through ``run_experiment``; the unmutated run of every command
passes.
"""

import numpy as np
import pytest

from qotp_lab import cotp, denseops, gadgets, harness, qotp, trap
from qotp_lab.backends import StabilizerSum, StateVector, TableauState
from qotp_lab.backends.frame import FrameReplay, _Reference
from qotp_lab.gadgets import AuthSession
from qotp_lab.harness import run_experiment
from qotp_lab.trap import TrapCode, TrapTable

_bell_measure = harness.bell_measure
_sum_apply_gate = StabilizerSum.apply_gate
_sum_density_of = StabilizerSum.density_of
_tableau_apply_gate = TableauState.apply_gate
_decode_record = TrapCode.decode_record
_pauli_decompose = denseops.pauli_decompose
_nontrivial_accepts = TrapTable.nontrivial_accepts
_open = cotp._open
_transversal_cnot = AuthSession.transversal_cnot_physical
_placements = trap._placements
_images = _Reference._images
_replay_gates = FrameReplay.apply_gates
_replay_measure = FrameReplay._measure


def _bell_swapped(*args, **kwargs):
    """Bell measurement reporting (z, x) for (x, z)."""
    return _bell_measure(*args, **kwargs)[::-1]


def _bell_zero(*args, **kwargs):
    """Bell measurement that measures, then always reports (0, 0)."""
    _bell_measure(*args, **kwargs)
    return 0, 0


def _discard_keeping_the_empty_half(self, qubits):
    """The dense discard keeping, of each collapsed qubit, the half with
    no weight: the state becomes 0/0, NaN."""
    for q in list(qubits):
        ax = self._axis(q)
        view = self._amps.reshape((1 << ax, 2, -1))
        w0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
        w1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
        self._amps = np.ascontiguousarray(
            view[:, 1 if w0 >= w1 else 0, :]).reshape(1, -1)
        with np.errstate(invalid="ignore"):
            self._amps = self._amps / np.linalg.norm(self._amps)
        self._ids.pop(ax)


def _sum_h_then_z(self, name, *qubit_ids):
    """The sum's H followed by Z."""
    _sum_apply_gate(self, name, *qubit_ids)
    if name == "H":
        _sum_apply_gate(self, "Z", *qubit_ids)


def _sum_cnot_reversed(self, name, *qubit_ids):
    """The sum's CNOT with control and target swapped."""
    _sum_apply_gate(self, name, *(qubit_ids[::-1] if name == "CNOT"
                                  else qubit_ids))


def _sum_read_unconjugated(self, qubits):
    """The sum's read without the conjugate on each expectation, which
    gives the transpose of the density."""
    return _sum_density_of(self, qubits).T


def _tableau_k_dagger(self, name, *qubit_ids):
    """The tableau's K applied three times: K^3 = K^dagger."""
    for _ in range(3 if name == "K" else 1):
        _tableau_apply_gate(self, name, *qubit_ids)


def _decode_skipping_a_trap(self, c, hadamard=False):
    """The record decode with its lowest trap position ignored."""
    traps = self.plus_mask if hadamard else self.zero_mask
    return _decode_record(self, c & ~(traps & -traps), hadamard)


def _decompose_dropping_largest(m):
    """The Pauli decomposition without its largest-magnitude term."""
    coeffs = _pauli_decompose(m)
    del coeffs[max(coeffs, key=lambda q: abs(coeffs[q]))]
    return coeffs


def _accepts_ignoring_an_x_check(self, x, z):
    """The nontrivial-accept table with the first X-check row ignored."""
    masks = np.delete(self.masks, 4 + self.rz, axis=1)
    return _nontrivial_accepts(TrapTable(masks, self.rz), x, z)


def _placements_without_plus_traps(hist, n, weight):
    """The closed form's count with no |+> trap for the rest of the attack:
    its C(n, w - k) factor becomes C(0, w - k), so only base words of the
    attack's full weight count."""
    return _placements(hist, 0, weight)


def _gf_mul_as_and(a, b, kappa):
    """GF(2^kappa) multiplication replaced by bitwise AND."""
    return a & b


def _open_still_padded(carried, pad, mac):
    """``_open`` returning the ciphertext with its pad still on."""
    state = _open(carried, pad, mac)
    return None if state is None else cotp._xor_bytes(state, pad)


def _open_empty_as_zero(carried, pad, mac):
    """``_open`` reading an empty carried state as the zero state."""
    return bytes(len(pad)) if carried == b"" else _open(carried, pad, mac)


def _verdict_never_cheated(self):
    """The verifier's verdict, which never marks a run as cheating."""
    return False


def _verdict_always_cheated(self):
    """The verifier's verdict, which marks every run as cheating."""
    return True


def _transversal_cnot_reversed(self, control, target):
    """The session's transversal CNOT with control and target swapped."""
    _transversal_cnot(self, target, control)


def _accepts_every_pair(self, x, z):
    """The nontrivial-accept table accepting every (x, z) pair."""
    return np.ones((len(self.masks), len(x)), dtype=bool)


def _images_h_leaves_the_frame(gates):
    """The reference's images of a gate list whose H gates leave the frame
    as it is."""
    return _images([g for g in gates if g[0] != "H"])


def _replay_cnots_without_z_back_propagation(self, gates):
    """The replay of a list of CNOTs (a transversal CNOT) carrying the
    frame's X from control to target but not its Z back from target to
    control."""
    fz = self._fz
    _replay_gates(self, gates)
    if all(g[0] == "CNOT" for g in gates):
        self._fz = fz


def _replay_measure_ignoring_frame_x(self, step, ids, labels, rng, sink):
    """A replayed measuring block that reads its outcomes as if the frame
    had no X."""
    fx, self._fx = self._fx, 0
    try:
        return _replay_measure(self, step, ids, labels, rng, sink)
    finally:
        self._fx ^= fx & step[-1]


_KEY_LABELS_X_Z_SWAPPED = [qotp._KEY_LABELS[k] for k in (0, 2, 1, 3)]

TELEPORT = ("teleport-check", {"seed": 1})
SIM = ("sim-compare", {"seed": 7, "cases": ["dummy", "w-only",
                                            "data-attack"]})
SIM_MAGIC = ("sim-compare", {"seed": 8, "cases": ["magic-attack"]})
# the dense backend's Bell pairs and registers
T_SV = ("qotp-run", {"seed": 9, "channel": [["T", 0]],
                     "code": {"base": "toy"}, "backend": "sv"})
SUM_K = ("qotp-run", {"seed": 9, "channel": [["K", 0]], "b_labels": ["+"],
                      "backend": "sum"})
# every run after the second replays its reference (``backends.frame``)
ATTACK = ("qotp-attack", {"seed": 9, "runs": 20})
# H gadget rounds: the replay carries a keyed register's frame through H
ATTACK_Z = ("qotp-attack", {"seed": 9, "runs": 20, "channel": [["Z", 0]]})
GADGETS = ("gadget-check", {"seed": 5})
SUM_CNOT = ("qotp-run", {"seed": 9, "channel": [["CNOT", 0, 1]], "n_b": 2,
                         "b_labels": ["+", "0"], "backend": "sum"})
TWIRL = ("twirl-check", {"seed": 1})
DISTANCE = ("trap-distance", {"seed": 1, "permutations": 50})
BROTP = ("brotp-check", {"seed": 1})
# the golden-digest config of trap-security
TRAP = ("trap-security", {"seed": 9, "attacks": 3, "samples": 500})

# (owner, attribute, mutant, run, checks that read FAIL under the mutant)
MUTANTS = {
    "bell-outcome-swapped": (
        harness, "bell_measure", _bell_swapped, TELEPORT,
        ["plain_teleport_infidelity", "through_clifford_infidelity",
         "attacked_teleport_infidelity"]),
    "bell-outcome-always-zero": (
        harness, "bell_measure", _bell_zero, TELEPORT,
        ["all_outcomes_observed"]),
    "discard-keeps-the-empty-half": (
        StateVector, "discard", _discard_keeping_the_empty_half, TELEPORT,
        ["plain_teleport_infidelity", "through_clifford_infidelity",
         "attacked_teleport_infidelity"]),
    "discard-keeps-the-empty-half-in-a-run": (
        StateVector, "discard", _discard_keeping_the_empty_half, T_SV,
        ["accepted", "output_fidelity", "final_key_equation"]),
    "key-labels-x-z-swapped": (
        qotp, "_KEY_LABELS", _KEY_LABELS_X_Z_SWAPPED, SIM,
        ["dummy_trace_distance", "w_only_trace_distance",
         "data_attack_trace_distance"]),
    "decode-skips-a-trap-bit": (
        TrapCode, "decode_record", _decode_skipping_a_trap, SIM_MAGIC,
        ["magic_attack_reject_weight"]),
    "sum-h-then-z": (
        StabilizerSum, "apply_gate", _sum_h_then_z, SUM_K,
        ["output_fidelity"]),
    "sum-cnot-reversed": (
        StabilizerSum, "apply_gate", _sum_cnot_reversed, SUM_CNOT,
        ["accepted", "output_fidelity", "final_key_equation"]),
    "sum-read-unconjugated": (
        StabilizerSum, "density_of", _sum_read_unconjugated, SUM_K,
        ["output_fidelity"]),
    "tableau-k-is-k-dagger": (
        TableauState, "apply_gate", _tableau_k_dagger, GADGETS,
        ["gadget_X_exact", "gadget_Y_exact", "gadget_Z_exact",
         "gadget_K_exact", "gadget_H_exact"]),
    "verifier-never-marks-cheating": (
        qotp.QotpVerifier, "verdict", _verdict_never_cheated, ATTACK,
        ["rejection_rate", "attack_verdict_mismatches"]),
    "replay-h-leaves-the-frame": (
        _Reference, "_images", staticmethod(_images_h_leaves_the_frame),
        ATTACK_Z, ["replay_matches_tableau"]),
    "replay-cnot-without-z-back-propagation": (
        FrameReplay, "apply_gates",
        _replay_cnots_without_z_back_propagation, ATTACK,
        ["replay_matches_tableau"]),
    "replay-measure-ignores-frame-x": (
        FrameReplay, "_measure", _replay_measure_ignoring_frame_x, ATTACK,
        ["replay_matches_tableau"]),
    "decompose-drops-largest-term": (
        denseops, "pauli_decompose", _decompose_dropping_largest, TWIRL,
        ["pauli_twirl_matches_mixture"]),
    "trap-table-ignores-an-x-check": (
        TrapTable, "nontrivial_accepts", _accepts_ignoring_an_x_check,
        DISTANCE, ["weight_le2_nontrivial_accepts"]),
    "mac-multiply-is-and": (
        harness, "gf_mul", _gf_mul_as_and, BROTP,
        ["mac_forgery_probability"]),
    "open-keeps-the-pad": (
        cotp, "_open", _open_still_padded, BROTP,
        ["honest_chain_matches_ideal"]),
    "open-reads-empty-as-zero": (
        cotp, "_open", _open_empty_as_zero, BROTP,
        ["out_of_order_aborts"]),
    "t-magic-conjugated": (
        gadgets, "T_MAGIC_AMPLITUDES", gadgets.T_MAGIC_AMPLITUDES.conj(),
        GADGETS, ["gadget_T_infidelity"]),
    "transversal-cnot-reversed": (
        AuthSession, "transversal_cnot_physical", _transversal_cnot_reversed,
        GADGETS, ["gadget_CNOT_exact", "gadget_K_exact", "gadget_H_exact",
                  "gadget_T_infidelity"]),
    "verifier-always-marks-cheating": (
        qotp.QotpVerifier, "verdict", _verdict_always_cheated, SIM,
        ["dummy_reject_weight", "w_only_reject_weight",
         "data_attack_reject_weight"]),
    "trap-table-accepts-everything": (
        TrapTable, "nontrivial_accepts", _accepts_every_pair, TRAP,
        ["worst_eps_hat", "worst_ci_hi", "placement_exact_in_ci"]),
    "closed-form-drops-plus-trap-placements": (
        trap, "_placements", _placements_without_plus_traps, TRAP,
        ["placement_exact_in_ci"]),
}


def _verdicts(run):
    command, config = run
    report, _ = run_experiment(command, dict(config))
    return {c["name"]: c["pass"] for c in report.checks}


# SIM_MAGIC's unmutated run is criterion 8's (every case at seed 8)
@pytest.mark.parametrize("run", [TELEPORT, SIM, SUM_K, SUM_CNOT, ATTACK,
                                 ATTACK_Z, GADGETS, TWIRL, DISTANCE, BROTP,
                                 TRAP],
                         ids=["teleport-check", "sim-compare", "qotp-run-K",
                              "qotp-run-CNOT", "qotp-attack", "qotp-attack-Z",
                              "gadget-check", "twirl-check", "trap-distance",
                              "brotp-check", "trap-security"])
def test_unmutated_run_passes(run):
    verdicts = _verdicts(run)
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("owner,attr,mutant,run,checks",
                         list(MUTANTS.values()), ids=list(MUTANTS))
def test_mutant_fails_its_checks(monkeypatch, owner, attr, mutant, run,
                                 checks):
    monkeypatch.setattr(owner, attr, mutant)
    verdicts = _verdicts(run)
    assert {name: verdicts[name] for name in checks} == \
        dict.fromkeys(checks, False), verdicts


# the check names no row fails yet
UNCOVERED = {
    # reads exactly 0 whenever its ``_exact`` twin passes, so likely no
    # mutant can fail it alone
    "magic_attack_trace_distance",
    # no verified mutant yet; its run is criterion 8's config, about 5 s
    "magic_attack_trace_distance_exact",
}

# one small run of every command, for the names of its checks
NAMED_RUNS = {
    "twirl-check": TWIRL,
    "trap-security": TRAP,
    "trap-distance": DISTANCE,
    "gadget-check": GADGETS,
    "qotp-run": SUM_K,
    "qotp-attack": ATTACK,
    "sim-compare": ("sim-compare", {"seed": 7}),
    "teleport-check": TELEPORT,
    "brotp-check": BROTP,
}


def test_every_check_has_a_mutant_row(monkeypatch):
    """Each check name of every command has a row above that fails it, or
    is on ``UNCOVERED``; every name on ``UNCOVERED`` is still a check no
    row covers."""
    # the names are the same whatever the comparison reads
    monkeypatch.setattr(harness, "compare_real_vs_sim",
                        lambda *args, **kwargs: (0.0, (0.0, 0.0)))
    names = set()
    for command in harness.COMMANDS:
        names |= set(_verdicts(NAMED_RUNS[command]))
    covered = {name for *_, checks in MUTANTS.values() for name in checks}
    assert covered <= names, covered - names
    assert names - covered == UNCOVERED, names - covered ^ UNCOVERED
