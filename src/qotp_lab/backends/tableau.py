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

from ..gf2 import relations
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
        rho = 2^{-k} sum_{P in S_keep} P.  A Pauli on the kept qubits is in
        the group (up to sign) exactly when it commutes with every
        stabilizer generator, which the kept qubits' column planes decide.
        It is then the product of the generators whose destabilizers it
        anticommutes with, and only those generators' rows are read.
        """
        keep = list(qubits)
        k = len(keep)
        if k > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        n = self._kernel.n
        planes = [self._kernel.column(q) for q in keep]
        # unknown i is X on keep[i], unknown k + i is Z on keep[i]; each
        # one's stabilizer and destabilizer rows it anticommutes with
        flips = [z for _, z in planes] + [x for x, _ in planes]
        elements = []  # (x, z, phase): i^phase X^x Z^z over keep bits
        for combo in relations([f >> n for f in flips]):
            gens = 0
            for u, f in enumerate(flips):
                if (combo >> u) & 1:
                    gens ^= f
            elements.append(self._product(gens & ((1 << n) - 1), keep))
        dim = 1 << k
        rho = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for combo in range(1 << len(elements)):
            x = z = phase = 0
            for j, (bx, bz, bp) in enumerate(elements):
                if (combo >> j) & 1:
                    phase += bp + 2 * (z & bx).bit_count()
                    x ^= bx
                    z ^= bz
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            rho[idx ^ x, idx] += _IPOW[phase & 3] * signs
        return rho / dim

    def _product(self, gens: int, keep: list) -> tuple[int, int, int]:
        """The product of the stabilizer generators in mask ``gens``, which
        is supported on ``keep``, as (x, z, phase) for i^phase X^x Z^z with
        qubit keep[i] at bit k-1-i."""
        x = z = phase = 0
        while gens:
            low = gens & -gens
            rx, rz, rs = self._kernel.stab_row(low.bit_length() - 1)
            phase += 2 * rs + (rx & rz).bit_count() + 2 * (z & rx).bit_count()
            x ^= rx
            z ^= rz
            gens ^= low
        k = len(keep)
        xr = zr = 0
        for i, q in enumerate(keep):
            xr |= ((x >> q) & 1) << (k - 1 - i)
            zr |= ((z >> q) & 1) << (k - 1 - i)
        return xr, zr, phase & 3


_IPOW = (1, 1j, -1, -1j)
