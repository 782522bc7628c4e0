"""Simulation backends with one contract.

Three interoperable state representations:

- ``StateVector`` - dense amplitudes, <= 24 qubits, supports the T gate.
- ``TableauState`` - stabilizer tableau, <= 4096 qubits, one pure-Python
  class over integer bit-planes.
- ``StabilizerSum`` - amplitude-weighted stabilizer terms, <= 256 qubits,
  rank <= 1024; covers circuits with few injected T-type magic states.

The contract is what the protocol runs call: ``append_qubits(k)``
prepares k |0> qubits and returns their ids, ``discard(ids)`` frees
collapsed qubits for reuse (and raises ``ValueError`` on one that is not),
``apply_gate(name, *ids)``, ``apply_pauli(p, ids)``, ``measure(id, rng)``
returns ``(bit, probability)`` with the bit drawn by the Born rule, and
``density_of(ids)`` is the reduced density matrix.
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
]
