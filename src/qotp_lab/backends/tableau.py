"""Stabilizer tableau backend.

Wraps one of two interchangeable kernels with one layout and one algorithm:
the compiled extension (``_tableau_core``, built from the hand-written
``_tableau_core.c``) when it imports, else the pure-Python bit-plane kernel
(``_tableau_pure``).
``KERNEL`` names the one in use; ``benchmarks/bench_tableau.py`` times
every kernel that imports.
"""

from __future__ import annotations

import numpy as np

from ..gf2 import nullspace
from ..paulis import PauliOperator

try:
    from ._tableau_core import TableauKernel  # type: ignore

    KERNEL = "compiled"
except ImportError:
    from ._tableau_pure import TableauKernel

    KERNEL = "pure"

MAX_QUBITS = 4096
_KERNEL_GATES = {"H": "h", "K": "k", "CNOT": "cx", "X": "x", "Y": "y",
                 "Z": "z"}


class TableauState:
    """Stabilizer state on up to 4096 qubits (state modulo global phase)."""

    kind = "tab"

    def __init__(self, n: int = 0):
        if n > MAX_QUBITS:
            raise ValueError("tableau backend capped at 4096 qubits")
        # The kernel is at least one qubit wide; qubits past ``n`` stay |0>.
        self._kernel = TableauKernel(max(n, 1))
        self.n = n

    # -- allocation ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        ids = list(range(self.n, self.n + k))
        if self.n + k > self._kernel.n:
            self._kernel.expand(self.n + k - self._kernel.n)
        self.n += k
        return ids

    def discard(self, qubits) -> None:
        """Keep the measured qubits: they stay in the tableau as product
        states, and their columns still cost every later measurement."""

    def copy(self) -> "TableauState":
        t = TableauState.__new__(TableauState)
        t._kernel = self._kernel.copy()
        t.n = self.n
        return t

    # -- operations ---------------------------------------------------------
    def apply_gate(self, name: str, *qubits: int) -> None:
        for q in qubits:
            if not 0 <= q < self.n:
                raise ValueError("gate target out of range")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate gate targets")
        method = _KERNEL_GATES.get(name)
        if method is None:
            raise ValueError(f"unknown gate {name!r}")
        getattr(self._kernel, method)(*qubits)

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        x = z = 0
        for j, q in enumerate(qubits):
            x |= ((p.x >> j) & 1) << q
            z |= ((p.z >> j) & 1) << q
        self._kernel.apply_pauli(x, z)

    def z_probabilities(self, qubit: int) -> tuple[float, float]:
        random, value = self._kernel.peek(qubit)
        if random:
            return 0.5, 0.5
        return (1.0, 0.0) if value == 0 else (0.0, 1.0)

    def measure(self, qubit: int, rng):
        """Measure in the computational basis; returns (bit, probability)."""
        random, value = self._kernel.peek(qubit)
        if not random:  # a deterministic measurement leaves the state as is
            return value, 1.0
        bit = int(rng.integers(0, 2))
        self._kernel.measure(qubit, bit)
        return bit, 0.5

    # -- inspection ----------------------------------------------------------
    def stabilizer_rows(self) -> list[tuple[int, int, int]]:
        return [self._kernel.stab_row(i) for i in range(self.n)]

    def density_of(self, qubits) -> np.ndarray:
        """Reduced density matrix on the listed qubits (<= 12).

        Sums the stabilizer-group elements supported inside the kept set:
        rho = 2^{-k} sum_{P in S_keep} P.
        """
        keep = list(qubits)
        k = len(keep)
        if k > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        pos = {q: i for i, q in enumerate(keep)}
        keep_mask = 0
        for q in keep:
            keep_mask |= 1 << q
        rows = self.stabilizer_rows()
        # Generator combinations supported inside `keep`: nullspace of the
        # outside-support matrix (unknown = generator selection vector).
        cols = []
        for j in range(self.n):
            if (keep_mask >> j) & 1:
                continue
            colx = colz = 0
            for i, (x, z, _) in enumerate(rows):
                colx |= ((x >> j) & 1) << i
                colz |= ((z >> j) & 1) << i
            cols.append(colx)
            cols.append(colz)
        basis = nullspace(cols, len(rows))
        dim = 1 << k
        rho = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for combo_bits in range(1 << len(basis)):
            combo = 0
            cb, bi = combo_bits, 0
            while cb:
                if cb & 1:
                    combo ^= basis[bi]
                cb >>= 1
                bi += 1
            x = z = 0
            phase = 0
            for i, (rx, rz, rs) in enumerate(rows):
                if (combo >> i) & 1:
                    phase += (2 * rs + (rx & rz).bit_count()
                              + 2 * (z & rx).bit_count())
                    x ^= rx
                    z ^= rz
            phase = (phase - (x & z).bit_count()) % 4
            # Restrict to keep, with qubit i of keep at index bit k-1-i.
            xr = zr = 0
            ycount = 0
            for q in keep:
                if (x >> q) & 1:
                    xr |= 1 << (k - 1 - pos[q])
                if (z >> q) & 1:
                    zr |= 1 << (k - 1 - pos[q])
                ycount += (x >> q) & (z >> q) & 1
            scale = (-1) ** (phase // 2) * (1j) ** ycount
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & zr) & 1)
            rho[idx ^ xr, idx] += scale * signs
        return rho / dim
