"""Dense statevector backend (up to 24 live qubits).

Qubit ids are stable handles; discarding a collapsed qubit frees its axis so
long protocol runs can stay within the dense budget.  Axis order follows id
creation order, with the first live id as the most significant index bit.

A state is a stack of rows over the same qubits: one row for a run, one per
branch when the exact comparison enumerates outcomes.  Gates, Paulis and
appended qubits act on every row at once, and ``fork`` and
``joint_densities`` read every row; the other reads and collapses refuse
a stack.
"""

from __future__ import annotations

import numpy as np

from ..denseops import GATE_MATRICES
from ..paulis import PauliOperator
from .blocks import BlockCalls

MAX_QUBITS = 24
_BLOCK = 1 << 13  # amplitudes a gate copies, or a read takes, at a time


class StateVector(BlockCalls):
    def __init__(self, n: int = 0):
        self._amps = np.ones((1, 1), dtype=complex)
        self._ids: list[int] = []
        self._next_id = 0
        self._spare = np.empty(0, dtype=complex)  # the gates' scratch
        if n:
            self.append_qubits(n)

    @property
    def n(self) -> int:
        return len(self._ids)

    @property
    def rows(self) -> int:
        return self._amps.size >> self.n

    def _axis(self, qubit_id: int) -> int:
        return self._ids.index(qubit_id)

    def _one_row(self) -> None:
        """Refuse a stack: the reads and collapses below take one run."""
        if self.rows != 1:
            raise ValueError(f"a stack of {self.rows} rows, where one row "
                             "was expected")

    def _stack(self, amps: np.ndarray, ids) -> "StateVector":
        """The rows ``amps`` over the qubits ``ids``, sharing this state's
        id counter and scratch."""
        out = StateVector.__new__(StateVector)
        out._amps, out._ids = amps, list(ids)
        out._next_id, out._spare = self._next_id, self._spare
        return out

    def select(self, rows) -> "StateVector":
        """The listed rows, as a state of their own."""
        return self._stack(self._amps.reshape(self.rows, -1)[rows], self._ids)

    def _grouped(self, rows: np.ndarray, *groups) -> np.ndarray:
        """``rows`` (2^n values per state row) with the qubit axes
        regrouped: shape (row, one axis per group), each group's axes in
        the listed order, the first most significant."""
        arr = rows.reshape((len(rows),) + (2,) * self.n).transpose(
            [0] + [1 + a for group in groups for a in group])
        return arr.reshape((len(rows),) + tuple(1 << len(g) for g in groups))

    # -- allocation ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        # checked before the 2^k amplitudes are allocated
        if self.n + k > MAX_QUBITS:
            raise ValueError("statevector backend capped at 24 qubits")
        vec = np.zeros(1 << k, dtype=complex)
        vec[0] = 1.0
        return self.append_amplitudes(vec)

    def append_amplitudes(self, amps: np.ndarray) -> list[int]:
        """Append qubits in the state ``amps`` (2^k amplitudes), on every
        row."""
        k = len(amps).bit_length() - 1
        if len(amps) != 1 << max(k, 0):
            raise ValueError(f"{len(amps)} amplitudes: not a power of two")
        if self.n + k > MAX_QUBITS:
            raise ValueError("statevector backend capped at 24 qubits")
        new_ids = list(range(self._next_id, self._next_id + k))
        self._next_id += k
        rows = self.rows
        self._amps = (self._amps.reshape(rows, -1, 1) * np.asarray(
            amps, dtype=complex)).reshape(rows, -1)
        self._ids.extend(new_ids)
        return new_ids

    def discard(self, qubits) -> None:
        self._one_row()
        for q in list(qubits):
            ax = self._axis(q)
            view = self._amps.reshape((1 << ax, 2, -1))
            w0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
            w1 = float(np.sum(np.abs(view[:, 1, :]) ** 2))
            if min(w0, w1) > 1e-9:
                raise ValueError("discard requires a collapsed qubit")
            keepbit = 0 if w0 >= w1 else 1
            self._amps = np.ascontiguousarray(
                view[:, keepbit, :]).reshape(1, -1)
            norm = np.linalg.norm(self._amps)
            self._amps = self._amps / norm
            self._ids.pop(ax)

    # -- operations ---------------------------------------------------------
    def apply_gate(self, name: str, *qubits: int) -> None:
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate gate targets")
        if name != "CNOT" and name not in GATE_MATRICES:
            raise ValueError(f"unknown gate {name!r}")
        axes = [self._axis(q) for q in qubits]
        # the amplitudes after the last gate axis run contiguously; a copy
        # of such runs as single (void) items moves each run at once
        run = 1 << self.n - 1 - max(axes)
        if name in ("Z", "K"):
            a1 = self._amps.reshape(-1, 2, run)[:, 1]
            a1 *= -1.0 if name == "Z" else 1j
            return
        items = self._amps.view(f"V{16 * run}")
        if name == "CNOT":
            items = items.reshape(-1, 2, 1 << abs(axes[1] - axes[0]) - 1, 2)
            if axes[0] < axes[1]:
                self._swap(items[:, 1, :, 0], items[:, 1, :, 1], run)
            else:
                self._swap(items[:, 0, :, 1], items[:, 1, :, 1], run)
            return
        a0, a1 = items.reshape(-1, 2).T
        if name in ("X", "Y"):
            self._swap(a0, a1, run)
            if name == "Y":
                a0, a1 = self._amps.reshape(-1, 2, run).transpose(1, 0, 2)
                a0 *= -1j
                a1 *= 1j
            return
        # a_i = m[i, 0] a0 + m[i, 1] a1, on contiguous copies; H's
        # m[1, 0] a0 is its m[0, 0] a0, the same product
        m = GATE_MATRICES[name]
        for x, y, items, (c0, c1, t, u) in self._blocks(a0, a1, run, 4):
            np.copyto(items[0], x)
            np.copyto(items[1], y)
            np.multiply(m[0, 0], c0, out=t)
            np.add(t, np.multiply(m[0, 1], c1, out=u), out=u)
            np.copyto(x, items[3])
            if m[1, 0] != m[0, 0]:
                np.multiply(m[1, 0], c0, out=t)
            np.add(t, np.multiply(m[1, 1], c1, out=c1), out=c1)
            np.copyto(y, items[1])

    def _blocks(self, a: np.ndarray, b: np.ndarray, run: int, copies: int):
        """The same-shaped item views ``a`` and ``b`` (``run`` amplitudes
        an item) a block at a time along their first axis, with ``copies``
        scratch buffers of a block's size, as items and as amplitudes.  A
        block of about ``_BLOCK`` amplitudes keeps its copies in cache, and
        the reused scratch spares the allocator the pages of fresh
        temporaries, which it would fault in again on every call."""
        step = max(1, _BLOCK * len(a) // (run * a.size))
        for lo in range(0, len(a), step):
            x, y = a[lo:lo + step], b[lo:lo + step]
            size = copies * run * x.size
            if self._spare.size < size:
                self._spare = np.empty(size, dtype=complex)
            bufs = self._spare[:size].reshape(copies, -1)
            yield x, y, bufs.view(x.dtype).reshape((copies,) + x.shape), bufs

    def _swap(self, a: np.ndarray, b: np.ndarray, run: int) -> None:
        for x, y, (tmp,), _ in self._blocks(a, b, run, 1):
            np.copyto(tmp, x)
            np.copyto(x, y)
            np.copyto(y, tmp)

    def apply_pauli(self, p: PauliOperator, qubits, rows=None) -> None:
        """``p`` on ``qubits`` of every row, or of the listed ``rows``."""
        if rows is not None:
            sub = self.select(rows)
            sub.apply_pauli(p, qubits)
            self._amps.reshape(self.rows, -1)[rows] = sub._amps
            return
        self._amps *= 1j ** p.phase_exp
        for j, q in enumerate(qubits):
            if (p.z >> j) & 1:
                self.apply_gate("Z", q)
            if (p.x >> j) & 1:
                self.apply_gate("X", q)

    def z_probabilities(self, qubit: int) -> tuple[float, float]:
        self._one_row()
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

    # -- joint reads of every row -------------------------------------------
    def fork(self, qubits, weights, floor: float):
        """Every joint outcome of the listed qubits on every row, the first
        listed most significant, kept at probability 1e-14 or more when its
        weight, the row's ``weights`` entry times its probability, is
        ``floor`` or more: (their flat indices row * 2^len(qubits) +
        outcome, row-major; their weights; the stack of their posteriors
        over the other qubits)."""
        axes = [self._axis(q) for q in qubits]
        rest = [a for a in range(self.n) if a not in axes]
        arr = self._grouped(self._amps.reshape(self.rows, -1), axes, rest)
        probs = np.sum(np.abs(arr) ** 2, axis=2)
        weights = (np.asarray(weights)[:, None] * probs).reshape(-1)
        probs = probs.reshape(-1)
        live = np.flatnonzero((probs >= 1e-14) & (weights >= floor))
        post = arr.reshape(probs.size, -1)[live] \
            / np.sqrt(probs[live])[:, None]
        return live, weights[live], self._stack(post, [self._ids[a]
                                                       for a in rest])

    def joint_outcomes(self, qubits) -> list[tuple[int, float, "StateVector"]]:
        """Every joint outcome of the listed qubits of a one-row state, as
        ``fork`` reads them: (bits, probability, posterior) triples."""
        live, probs, post = self.fork(qubits, [1.0], 0.0)
        return [(int(k), float(p), post.select(slice(j, j + 1)))
                for j, (k, p) in enumerate(zip(live, probs))]

    def joint_densities(self, qubits, keep):
        """Every live outcome (as in ``fork``) of the listed qubits on every
        row: (their flat indices, their probabilities, their densities of
        ``keep``).  Each density is ``density_of(keep)`` on the outcome's
        posterior, bit for bit, read from one (outcome, keep, rest) view a
        cache-sized block of rows at a time."""
        axes = [self._axis(q) for q in qubits]
        kept = [self._axis(q) for q in keep]
        rest = [a for a in range(self.n) if a not in axes]
        other = [a for a in rest if a not in kept]
        rows = self._amps.reshape(self.rows, -1)
        step = max(1, _BLOCK >> self.n)
        parts = []
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            probs = np.sum(self._grouped(np.abs(block) ** 2, axes, rest),
                           axis=2).reshape(-1)
            amps = self._grouped(block, axes, kept, other).reshape(
                probs.size, 1 << len(kept), -1)
            live = np.flatnonzero(probs >= 1e-14)
            amps = amps[live]  # a copy, even of a view of the state
            amps /= np.sqrt(probs[live])[:, None, None]
            parts.append((live + (lo << len(axes)), probs[live],
                          amps @ amps.conj().transpose(0, 2, 1)))
        return tuple(np.concatenate(part) for part in zip(*parts))

    # -- inspection ----------------------------------------------------------
    def amplitudes(self, order: list[int] | None = None) -> np.ndarray:
        """Statevector with the given qubit-id order (default: id order)."""
        self._one_row()
        if order is None or order == self._ids:
            return self._amps.reshape(-1).copy()
        perm = [self._axis(q) for q in order]
        return np.ascontiguousarray(
            self._amps.reshape((2,) * self.n).transpose(perm)).reshape(-1)

    def density_of(self, qubits) -> np.ndarray:
        self._one_row()
        keep = [self._axis(q) for q in qubits]
        if len(keep) > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        arr = self._grouped(self._amps.reshape(1, -1), keep, [
            a for a in range(self.n) if a not in keep])[0]
        return arr @ arr.conj().T
