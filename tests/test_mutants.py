"""The mutant table: each row plants one bug in-process and names the
report checks that must read FAIL under it.

A check that stays green whatever the code does shows nothing; a row here
is the evidence that its checks see the bug they are named for. Each row
replaces one module or class attribute with ``monkeypatch`` and runs a
command through ``run_experiment``; the unmutated run of every command
passes.
"""

import pytest

from qotp_lab import harness, qotp
from qotp_lab.backends import StabilizerSum
from qotp_lab.harness import run_experiment
from qotp_lab.trap import TrapCode

_bell_measure = harness.bell_measure
_sum_apply_gate = StabilizerSum.apply_gate
_decode_record = TrapCode.decode_record


def _bell_swapped(*args, **kwargs):
    """Bell measurement reporting (z, x) for (x, z)."""
    return _bell_measure(*args, **kwargs)[::-1]


def _bell_zero(*args, **kwargs):
    """Bell measurement that measures, then always reports (0, 0)."""
    _bell_measure(*args, **kwargs)
    return 0, 0


def _sum_h_then_z(self, name, *qubit_ids):
    """The sum's H followed by Z."""
    _sum_apply_gate(self, name, *qubit_ids)
    if name == "H":
        _sum_apply_gate(self, "Z", *qubit_ids)


def _sum_cnot_reversed(self, name, *qubit_ids):
    """The sum's CNOT with control and target swapped."""
    _sum_apply_gate(self, name, *(qubit_ids[::-1] if name == "CNOT"
                                  else qubit_ids))


def _decode_skipping_a_trap(self, c, hadamard=False):
    """The record decode with its lowest trap position ignored."""
    traps = self.plus_mask if hadamard else self.zero_mask
    return _decode_record(self, c & ~(traps & -traps), hadamard)


def _verdict_never_cheated(self):
    """The verifier's verdict, which never marks a run as cheating."""
    return False


_KEY_LABELS_X_Z_SWAPPED = [qotp._KEY_LABELS[k] for k in (0, 2, 1, 3)]

TELEPORT = ("teleport-check", {"seed": 1})
SIM = ("sim-compare", {"seed": 7, "cases": ["dummy", "w-only",
                                            "data-attack"]})
SIM_MAGIC = ("sim-compare", {"seed": 8, "cases": ["magic-attack"]})
SUM_K = ("qotp-run", {"seed": 9, "channel": [["K", 0]], "b_labels": ["+"],
                      "backend": "sum"})
# every run after the second replays its reference (``backends.frame``)
ATTACK = ("qotp-attack", {"seed": 9, "runs": 20})
SUM_CNOT = ("qotp-run", {"seed": 9, "channel": [["CNOT", 0, 1]], "n_b": 2,
                         "b_labels": ["+", "0"], "backend": "sum"})

# (owner, attribute, mutant, run, checks that read FAIL under the mutant)
MUTANTS = {
    "bell-outcome-swapped": (
        harness, "bell_measure", _bell_swapped, TELEPORT,
        ["plain_teleport_infidelity", "through_clifford_infidelity",
         "attacked_teleport_infidelity"]),
    "bell-outcome-always-zero": (
        harness, "bell_measure", _bell_zero, TELEPORT,
        ["all_outcomes_observed"]),
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
    "verifier-never-marks-cheating": (
        qotp.QotpVerifier, "verdict", _verdict_never_cheated, ATTACK,
        ["rejection_rate"]),
}


def _verdicts(run):
    command, config = run
    report, _ = run_experiment(command, dict(config))
    return {c["name"]: c["pass"] for c in report.checks}


# SIM_MAGIC's unmutated run is criterion 8's (every case at seed 8)
@pytest.mark.parametrize("run", [TELEPORT, SIM, SUM_K, SUM_CNOT, ATTACK],
                         ids=["teleport-check", "sim-compare", "qotp-run-K",
                              "qotp-run-CNOT", "qotp-attack"])
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
