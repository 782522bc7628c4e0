"""Dense statevector backend (up to 24 live qubits).

Qubit ids are stable handles; discarding a collapsed qubit frees its axis so
long protocol runs can stay within the dense budget.  Axis order follows id
creation order, with the first live id as the most significant index bit.
"""

from __future__ import annotations

import numpy as np

from ..denseops import GATE_MATRICES
from ..paulis import PauliOperator

MAX_QUBITS = 24


class StateVector:
    def __init__(self, n: int = 0):
        self._amps = np.ones((1,), dtype=complex)
        self._ids: list[int] = []
        self._next_id = 0
        if n:
            self.append_qubits(n)

    @property
    def n(self) -> int:
        return len(self._ids)

    def _axis(self, qubit_id: int) -> int:
        return self._ids.index(qubit_id)

    # -- allocation ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        # checked before the 2^k amplitudes are allocated
        if self.n + k > MAX_QUBITS:
            raise ValueError("statevector backend capped at 24 qubits")
        vec = np.zeros(1 << k, dtype=complex)
        vec[0] = 1.0
        return self.append_amplitudes(vec)

    def append_amplitudes(self, amps: np.ndarray) -> list[int]:
        k = int(np.log2(len(amps)))
        if self.n + k > MAX_QUBITS:
            raise ValueError("statevector backend capped at 24 qubits")
        new_ids = list(range(self._next_id, self._next_id + k))
        self._next_id += k
        self._amps = np.kron(self._amps, np.asarray(amps, dtype=complex))
        self._ids.extend(new_ids)
        return new_ids

    def discard(self, qubits) -> None:
        for q in list(qubits):
            ax = self._axis(q)
            view = self._amps.reshape((1 << ax, 2, -1))
            w0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
            w1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
            if min(w0, w1) > 1e-9:
                raise ValueError("discard requires a collapsed qubit")
            keepbit = 0 if w0 >= w1 else 1
            self._amps = np.ascontiguousarray(view[:, keepbit, :]).reshape(-1)
            norm = np.linalg.norm(self._amps)
            self._amps = self._amps / norm
            self._ids.pop(ax)

    # -- operations ---------------------------------------------------------
    def apply_gate(self, name: str, *qubits: int) -> None:
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate gate targets")
        if name == "CNOT":
            self._apply_cnot(*qubits)
            return
        ax = self._axis(qubits[0])
        view = self._amps.reshape((1 << ax, 2, -1))
        if name == "X":
            view[:, [0, 1], :] = view[:, [1, 0], :]
            return
        if name == "Z":
            view[:, 1, :] *= -1.0
            return
        if name == "K":
            view[:, 1, :] *= 1j
            return
        if name == "Y":
            view[:, [0, 1], :] = view[:, [1, 0], :]
            view[:, 0, :] *= -1j
            view[:, 1, :] *= 1j
            return
        m = GATE_MATRICES[name]
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :].copy()
        view[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
        view[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1

    def _apply_cnot(self, control: int, target: int) -> None:
        axc, axt = self._axis(control), self._axis(target)
        n = self.n
        view = self._amps.reshape((2,) * n)
        idx_on = [slice(None)] * n
        idx_on[axc] = 1
        block = view[tuple(idx_on)]
        view[tuple(idx_on)] = np.flip(block, axis=axt - (1 if axt > axc else 0))

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        self._amps = self._amps * (1j ** p.phase_exp)
        for j, q in enumerate(qubits):
            if (p.z >> j) & 1:
                self.apply_gate("Z", q)
            if (p.x >> j) & 1:
                self.apply_gate("X", q)

    def z_probabilities(self, qubit: int) -> tuple[float, float]:
        ax = self._axis(qubit)
        view = self._amps.reshape((1 << ax, 2, -1))
        p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
        p1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
        tot = p0 + p1
        if tot < 1e-300:
            return 0.0, 0.0
        return p0 / tot, p1 / tot

    def measure(self, qubit: int, rng):
        p0, p1 = self.z_probabilities(qubit)
        bit = 1 if rng.random() < p1 else 0
        prob = p1 if bit else p0
        ax = self._axis(qubit)
        view = self._amps.reshape((1 << ax, 2, -1))
        view[:, 1 - bit, :] = 0.0
        if prob > 1e-300:
            self._amps = self._amps / np.sqrt(prob)
        return bit, prob

    def joint_outcomes(self, qubits) -> list[tuple[int, float, "StateVector"]]:
        """All outcomes of measuring the listed qubits jointly.

        Returns (bits, probability, posterior) triples; ``bits`` has the
        first listed qubit as its most significant bit, and the posterior
        keeps only the unmeasured qubits (ids preserved).
        """
        arr, probs, rest_ids = self._outcome_rows(qubits)
        out = []
        for k in range(len(probs)):
            p = float(probs[k])
            if p < 1e-14:
                continue
            post = StateVector.__new__(StateVector)
            post._amps = np.ascontiguousarray(arr[k]) / np.sqrt(p)
            post._ids = list(rest_ids)
            post._next_id = self._next_id
            out.append((k, p, post))
        return out

    def joint_densities(self, qubits, keep):
        """Every outcome of measuring the listed qubits jointly, as one
        stack: (live outcome indices, their probabilities, their densities
        of ``keep``).  An outcome is live at probability 1e-14 or more, as
        in ``joint_outcomes``, and each density is what ``density_of(keep)``
        on that outcome's posterior gives, bit for bit, read from one
        (outcome, keep, rest) view instead of one state per outcome."""
        arr, probs, rest_ids = self._outcome_rows(qubits)
        kept = [rest_ids.index(q) for q in keep]
        order = kept + [a for a in range(len(rest_ids)) if a not in kept]
        arr = arr.reshape((len(probs),) + (2,) * len(rest_ids))
        arr = arr.transpose([0] + [1 + a for a in order])
        arr = arr.reshape(len(probs), 1 << len(kept), -1)
        live = np.flatnonzero(probs >= 1e-14)
        amps = arr[live] / np.sqrt(probs[live])[:, None, None]
        return live, probs[live], amps @ amps.conj().transpose(0, 2, 1)

    def _outcome_rows(self, qubits):
        """The amplitudes as one row per joint outcome of the listed qubits
        (first listed most significant), each row over the other qubits in
        axis order; the rows' probabilities; the other qubits' ids."""
        axes = [self._axis(q) for q in qubits]
        rest_axes = [a for a in range(self.n) if a not in axes]
        arr = self._amps.reshape((2,) * self.n)
        arr = arr.transpose(axes + rest_axes).reshape(1 << len(axes), -1)
        probs = np.sum(np.abs(arr) ** 2, axis=1)
        return arr, probs, [self._ids[a] for a in rest_axes]

    # -- inspection ----------------------------------------------------------
    def amplitudes(self, order: list[int] | None = None) -> np.ndarray:
        """Statevector with the given qubit-id order (default: id order)."""
        if order is None or order == self._ids:
            return self._amps.copy()
        perm = [self._axis(q) for q in order]
        return np.ascontiguousarray(
            self._amps.reshape((2,) * self.n).transpose(perm)).reshape(-1)

    def density_of(self, qubits) -> np.ndarray:
        keep = list(qubits)
        if len(keep) > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        perm = [self._axis(q) for q in keep] + \
               [ax for ax in range(self.n) if self._ids[ax] not in keep]
        arr = self._amps.reshape((2,) * self.n).transpose(perm)
        arr = arr.reshape((1 << len(keep), -1))
        return arr @ arr.conj().T
