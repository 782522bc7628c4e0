"""Stabilizer tableau backend.

Wraps the pure-Python bit-plane kernel (``_tableau_pure``);
``benchmarks/bench_tableau.py`` times it.

Qubit ids map to kernel columns.  A random measurement leaves the measured
qubit a column of its own, so a discarded qubit costs one sign read and at
most one ``x`` to reset, and the next ``append_qubits`` reuses its column
as a fresh |0>: a run's width is its peak of live qubits, not the number
it ever appended.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..gf2 import relations
from ..paulis import PauliOperator
from ._tableau_pure import TableauKernel

KERNEL = "pure"  # kept: ``perfbench/worker.py`` imports it and reports it

MAX_QUBITS = 4096
_KERNEL_GATES = {"H": "h", "K": "k", "CNOT": "cx", "X": "x", "Z": "z"}


class TableauState:
    """Stabilizer state on up to 4096 qubits (state modulo global phase).

    Qubit ids are stable handles over reusable kernel columns: a discarded
    (collapsed) qubit is reset to |0> and its column goes on a free list,
    which ``append_qubits`` takes from before it widens the kernel.
    """

    def __init__(self, n: int = 0):
        if n > MAX_QUBITS:
            raise ValueError("tableau backend capped at 4096 qubits")
        # The kernel is at least one column wide; a spare column is free.
        self._kernel = TableauKernel(max(n, 1))
        self._col_of: dict[int, int] = {q: q for q in range(n)}
        self._free: list[int] = [] if n else [0]
        self._next_id = n

    @property
    def n(self) -> int:
        return len(self._col_of)

    def _col(self, qubit_id: int) -> int:
        try:
            return self._col_of[qubit_id]
        except KeyError:
            raise ValueError(f"no live qubit {qubit_id!r}") from None

    # -- allocation ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        free = self._free
        cols = [free.pop() for _ in range(min(k, len(free)))]
        grow = k - len(cols)
        if grow:
            width = self._kernel.n
            if width + grow > MAX_QUBITS:
                raise ValueError("tableau backend capped at 4096 qubits")
            self._kernel.expand(grow)
            cols += range(width, width + grow)
        ids = list(range(self._next_id, self._next_id + k))
        self._next_id += k
        self._col_of.update(zip(ids, cols))
        return ids

    def discard(self, qubits) -> None:
        """Free collapsed qubits: each is reset to |0> and its column is
        reused by a later ``append_qubits``.  A qubit that is not collapsed
        raises ``ValueError``."""
        kernel = self._kernel
        for qid in list(qubits):
            col = self._col(qid)
            random, value = kernel.peek(col)
            if random:
                raise ValueError("discard requires a collapsed qubit")
            if value:
                kernel.x(col)
            del self._col_of[qid]
            self._free.append(col)

    # -- operations ---------------------------------------------------------
    def apply_gate(self, name: str, *qubits: int) -> None:
        method = _KERNEL_GATES.get(name)
        if method is None:
            if name != "Y":
                raise ValueError(f"unknown gate {name!r}")
            # Y = iXZ: the sign flips of X, then those of Z
            self.apply_gate("X", *qubits)
            self.apply_gate("Z", *qubits)
            return
        gate = getattr(self._kernel, method)
        col_of = self._col_of
        try:
            if len(qubits) == 1:
                gate(col_of[qubits[0]])
                return
            c, t = qubits
            c, t = col_of[c], col_of[t]
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None
        if c == t:
            raise ValueError("duplicate gate targets")
        gate(c, t)

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        try:
            cols = [*map(self._col_of.__getitem__, qubits)]
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None
        # a Pauli is its X and Z sign flips, one column per set bit
        width = (1 << len(cols)) - 1
        for bits, flip in ((p.x & width, self._kernel.x),
                           (p.z & width, self._kernel.z)):
            while bits:
                low = bits & -bits
                flip(cols[low.bit_length() - 1])
                bits ^= low

    def z_probabilities(self, qubit: int) -> tuple[float, float]:
        random, value = self._kernel.peek(self._col(qubit))
        if random:
            return 0.5, 0.5
        return (1.0, 0.0) if value == 0 else (0.0, 1.0)

    def measure(self, qubit: int, rng):
        """Measure in the computational basis; returns (bit, probability).

        One kernel call, which draws ``rng.integers(0, 2)`` only for a
        random outcome; a deterministic one leaves the state as is."""
        bit, random = self._kernel.measure(self._col(qubit),
                                           partial(rng.integers, 0, 2))
        return bit, 0.5 if random else 1.0

    # -- inspection ----------------------------------------------------------
    def density_of(self, qubits) -> np.ndarray:
        """Reduced density matrix on the listed qubits (<= 12).

        Sums the stabilizer-group elements supported inside the kept set:
        rho = 2^{-k} sum_{P in S_keep} P.  A Pauli on the kept qubits is in
        the group (up to sign) exactly when it commutes with every
        stabilizer generator, which the kept qubits' column planes decide.
        It is then the product of the generators whose destabilizers it
        anticommutes with, and only those generators' rows are read.
        """
        keep = [self._col(q) for q in qubits]
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
        is supported on the columns ``keep``, as (x, z, phase) for
        i^phase X^x Z^z with column keep[i] at bit k-1-i."""
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
