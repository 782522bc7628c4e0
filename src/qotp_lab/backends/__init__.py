"""Simulation backends with one contract.

Three interoperable state representations:

- ``StateVector`` - dense amplitudes, <= 24 qubits, supports the T gate.
- ``TableauState`` - stabilizer tableau, <= 4096 qubits (the C kernel
  ``_tableau_core`` when it has been built, else the pure-Python one;
  ``KERNEL`` names it).
- ``StabilizerSum`` - amplitude-weighted stabilizer terms, <= 256 qubits,
  rank <= 1024; covers circuits with few injected T-type magic states.

All expose: append_qubits, apply_gate, apply_pauli, measure,
z_probabilities, density_of, copy, to_json/from_json.  ``state_from_json``
rebuilds any of them from its JSON form; ``measure_all`` measures a list of
qubits in turn.
"""

from __future__ import annotations

from .statevector import StateVector
from .stabsum import StabilizerSum
from .tableau import KERNEL, TableauState

__all__ = [
    "StateVector",
    "TableauState",
    "StabilizerSum",
    "KERNEL",
    "state_from_json",
    "measure_all",
]


def state_from_json(data: dict):
    kind = data["backend"]
    if kind == "sv":
        return StateVector.from_json(data)
    if kind == "tab":
        return TableauState.from_json(data)
    if kind == "sum":
        return StabilizerSum.from_json(data)
    raise ValueError(f"unknown backend {kind!r}")


def measure_all(state, qubits, rng=None, forced=None) -> tuple[list[int], float]:
    """Measure the listed qubits in order; returns (bits, joint probability)."""
    bits = []
    prob = 1.0
    for i, q in enumerate(qubits):
        f = None if forced is None else forced[i]
        b, p = state.measure(q, rng=rng, forced=f)
        bits.append(b)
        prob *= p
    return bits, prob
