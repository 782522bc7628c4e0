"""Stabilizer tableau backend: one pure-Python bit-plane tableau.

Column-major layout over a row capacity C >= the column count w: for each
column there is one X plane and one Z plane, each a Python integer whose bit
i is the row-i entry.  Rows 0..w-1 are destabilizers and rows C..C+w-1
stabilizers; the rows in between stay zero, so appending a qubit inside the
capacity is one plane per qubit and only a growth past C (which doubles it)
remaps the columns.  Row signs live in one integer plane.  Single- and
two-qubit gates are then O(1) big-integer operations.  A random measurement
is one scan, then the pivot rows' support: one C-level scan of each
column's support plane (x | z, kept beside the X and Z planes) finds the
columns where the pivot stabilizer row or its destabilizer has a bit, and
only those columns run the bit-sliced row sums and the pivot-row clears,
which keeps the tableau usable at a few hundred qubits.

Row i represents the Pauli (-1)^{sign_i} * prod_j letter(x_ij, z_ij) with
letter(1,1) = Y.

Qubit ids map to columns.  A random measurement leaves the measured qubit a
column of its own, so a discarded qubit costs one sign read and at most one
X to reset, and the next ``append_qubits`` reuses its column as a fresh
|0>: a run's width is its peak of live qubits, not the number it ever
appended.  ``benchmarks/bench_tableau.py`` times the tableau.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_

import numpy as np

from ..gf2 import relations
from ..paulis import PauliOperator
from .blocks import BlockCalls

KERNEL = "pure"  # kept: ``perfbench/worker.py`` imports it and reports it

MAX_QUBITS = 4096


class TableauState(BlockCalls):
    """Stabilizer state on up to 4096 qubits (state modulo global phase).

    Qubit ids are stable handles over reusable columns: a discarded
    (collapsed) qubit is reset to |0> and its column goes on a free list,
    which ``append_qubits`` takes from before it widens the tableau.
    """

    def __init__(self, n: int = 0):
        if n > MAX_QUBITS:
            raise ValueError("tableau backend capped at 4096 qubits")
        # At least one column wide; a spare column is free.
        width = self._cap = max(n, 1)
        # Destabilizer i = X_i (row i), stabilizer i = Z_i (row C+i).
        self.xcols = [1 << i for i in range(width)]
        self.zcols = [1 << (width + i) for i in range(width)]
        # each column's support x | z, which only a CNOT or a measurement
        # changes; a random measurement scans it for the pivot rows
        self.supp = [x | z for x, z in zip(self.xcols, self.zcols)]
        self.signs = 0
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

    def copy(self) -> "TableauState":
        """An independent ``TableauState`` with this one's state and ids."""
        t = TableauState.__new__(TableauState)
        t._cap, t.signs, t._next_id = self._cap, self.signs, self._next_id
        t.xcols, t.zcols, t.supp = \
            list(self.xcols), list(self.zcols), list(self.supp)
        t._col_of, t._free = dict(self._col_of), list(self._free)
        return t

    # -- allocation ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        free = self._free
        cols = [free.pop() for _ in range(min(k, len(free)))]
        width = len(self.xcols)
        grown = width + k - len(cols)
        if grown > width:
            if grown > MAX_QUBITS:
                raise ValueError("tableau backend capped at 4096 qubits")
            if grown > self._cap:
                self._regrow(max(2 * self._cap, grown))
            cap = self._cap
            self.xcols += [1 << i for i in range(width, grown)]
            self.zcols += [1 << (cap + i) for i in range(width, grown)]
            self.supp += [(1 | 1 << cap) << i for i in range(width, grown)]
            cols += range(width, grown)
        ids = list(range(self._next_id, self._next_id + k))
        self._next_id += k
        self._col_of.update(zip(ids, cols))
        return ids

    def _regrow(self, cap: int) -> None:
        """Move the stabilizer rows up to a capacity of ``cap`` rows."""
        old, low = self._cap, (1 << len(self.xcols)) - 1

        def remap(planes: list) -> list:
            return [(p & low) | ((p >> old) << cap) for p in planes]

        self.xcols = remap(self.xcols)
        self.zcols = remap(self.zcols)
        self.supp = remap(self.supp)
        self.signs = remap([self.signs])[0]
        self._cap = cap

    def discard(self, qubits) -> None:
        """Free collapsed qubits: each is reset to |0> and its column is
        reused by a later ``append_qubits``.  A qubit that is not collapsed
        raises ``ValueError``."""
        for qid in list(qubits):
            col = self._col(qid)
            if self.xcols[col] >> self._cap:
                raise ValueError("discard requires a collapsed qubit")
            if self._deterministic_value(col):
                self.signs ^= self.zcols[col]  # X resets it to |0>
            del self._col_of[qid]
            self._free.append(col)

    # -- operations ---------------------------------------------------------
    def apply_gate(self, name: str, *qubits: int) -> None:
        xcols, zcols = self.xcols, self.zcols
        col_of = self._col_of
        try:
            if name == "CNOT":
                c, t = qubits
                c, t = col_of[c], col_of[t]
            else:
                (q,) = qubits
                q = col_of[q]
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None
        if name == "CNOT":
            if c == t:
                raise ValueError("duplicate gate targets")
            xc, zc = xcols[c], zcols[c]
            xt, zt = xcols[t], zcols[t]
            self.signs ^= xc & zt & ~(xt ^ zc)
            xcols[t] = xt = xt ^ xc
            zcols[c] = zc = zc ^ zt
            self.supp[t] = xt | zt
            self.supp[c] = xc | zc
        elif name == "H":
            xq, zq = xcols[q], zcols[q]
            self.signs ^= xq & zq
            xcols[q], zcols[q] = zq, xq
        elif name == "K":
            xq = xcols[q]
            self.signs ^= xq & zcols[q]
            zcols[q] ^= xq
        elif name == "X":
            self.signs ^= zcols[q]
        elif name == "Z":
            self.signs ^= xcols[q]
        elif name == "Y":  # Y = iXZ: the sign flips of X and of Z
            self.signs ^= xcols[q] ^ zcols[q]
        else:
            raise ValueError(f"unknown gate {name!r}")

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        try:
            cols = [*map(self._col_of.__getitem__, qubits)]
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None
        # a Pauli is its X and Z sign flips, one column per set bit
        width = (1 << len(cols)) - 1
        for bits, flips in ((p.x & width, self.zcols),
                            (p.z & width, self.xcols)):
            while bits:
                low = bits & -bits
                self.signs ^= flips[cols[low.bit_length() - 1]]
                bits ^= low

    def z_probabilities(self, qubit: int) -> tuple[float, float]:
        col = self._col(qubit)
        if self.xcols[col] >> self._cap:
            return 0.5, 0.5
        return (0.0, 1.0) if self._deterministic_value(col) else (1.0, 0.0)

    def _deterministic_value(self, q: int) -> int:
        """The sign of Z at column q as the product of the stabilizer rows
        selected by the destabilizer X bits at q.

        The product over the selected rows i, in row order, of one column's
        letters i^{a_i b_i} X^{a_i} Z^{b_i} has phase
        sum_i a_i b_i + 2 #{i < l : b_i a_l} (mod 4).  A column with no X
        in the selected rows adds nothing, so one scan finds the columns to
        count.  Right after a random
        measurement exactly one row is selected, and its sign is the value.
        """
        cap = self._cap
        xcols, zcols = self.xcols, self.zcols
        sel = (xcols[q] & ((1 << cap) - 1)) << cap
        if not sel & (sel - 1):
            return 1 if self.signs & sel else 0
        acc = 2 * (self.signs & sel).bit_count()
        for j in compress(range(len(xcols)), map(and_, xcols, repeat(sel))):
            xs, zs = xcols[j] & sel, zcols[j] & sel
            acc += (xs & zs).bit_count()
            while xs:
                low = xs & -xs
                acc += 2 * (zs & (low - 1)).bit_count()
                xs ^= low
        return (acc >> 1) & 1

    def measure(self, qubit: int, rng):
        """Measure in the computational basis; returns (bit, probability).

        Draws ``rng.integers(0, 2)`` only for a random outcome, and takes
        it as the bit; a deterministic one leaves the state as is.

        One scan, then the pivot rows' support: rows p and d = p-C are
        never in ``sel``, so the row sums into ``sel`` and the clearing of
        rows p and d share one loop, each column reading its own row-p
        bits.  A column where row p is clear takes no row sum, and its
        phase terms add b and then 3b (0 mod 4), so it only loses its row-d
        bits; the loop runs only over the columns the scan finds, where row
        p or row d is set.

        Destabilizer i need only anticommute with stabilizer i and commute
        with the other stabilizers (nothing reads how destabilizers commute
        with each other, or their signs), so the measured qubit is then
        left a column of its own: stabilizer p := (-1)^bit Z_q,
        destabilizer d := X_q, and every other row's Z at q is cleared by
        multiplying that row by row p."""
        q = self._col(qubit)
        cap = self._cap
        xcols, zcols, supp = self.xcols, self.zcols, self.supp
        anti = xcols[q] >> cap
        if not anti:
            return self._deterministic_value(q), 1.0
        bit = int(rng.integers(0, 2)) & 1
        d = (anti & -anti).bit_length() - 1  # first anticommuting stab row
        p = cap + d
        pbit, dbit = 1 << p, 1 << d
        keep = ~(pbit | dbit)
        sel = xcols[q] & keep
        # Two-bit accumulator per row of (|xi&zi| - |xi'&zi'| + 2|zp&xi|
        # + |xp&zp|) mod 4; the final result is 0 or 2 and bit 1 is the flip.
        lo = hi = 0
        c1 = 0  # |xp & zp| scalar
        # Lazy is safe: the loop writes only column j, which the scan passed.
        touched = compress(range(len(xcols)), map(and_, supp,
                                                  repeat(pbit | dbit)))
        for j in touched:
            xq, zq = xcols[j], zcols[j]
            xpj, zpj = (xq >> p) & 1, (zq >> p) & 1
            if xpj or zpj:  # else no row sum: only row d's bits go
                b = xq & zq                  # + |xi & zi|
                hi ^= lo & b
                lo ^= b
                if xpj:
                    xq ^= sel
                if zpj:
                    hi ^= xcols[j]           # + 2 |zp & xi|
                    zq ^= sel
                b = xq & zq                  # - |xi' & zi'| == +3|..| mod 4
                hi ^= lo & b
                lo ^= b
                hi ^= b
                c1 += xpj & zpj
            xcols[j] = xq = xq & keep
            zcols[j] = zq = zq & keep
            supp[j] = xq | zq
        # add scalar (c1 + 2*rp) mod 4 over all rows
        signs = self.signs
        c = (c1 + 2 * ((signs >> p) & 1)) & 3
        if c & 1:
            hi ^= lo
            lo = ~lo
        if c & 2:
            hi = ~hi
        signs ^= hi & sel
        # the stabilizers with Z at q, times row p, take its sign
        if bit:
            signs ^= zcols[q] >> cap << cap
        xcols[q], zcols[q], supp[q] = dbit, pbit, dbit | pbit
        self.signs = (signs & keep) | (pbit if bit else 0)
        return bit, 0.5

    # -- inspection ----------------------------------------------------------
    def stab_row(self, i: int) -> tuple[int, int, int]:
        """Stabilizer generator i as (xmask, zmask, signbit), bit j of a
        mask for column j."""
        row = self._cap + i
        x = z = 0
        for j, (xj, zj) in enumerate(zip(self.xcols, self.zcols)):
            x |= ((xj >> row) & 1) << j
            z |= ((zj >> row) & 1) << j
        return x, z, (self.signs >> row) & 1

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
        cap = self._cap
        # unknown i is X on keep[i], unknown k + i is Z on keep[i]; each
        # one's stabilizer rows (above bit C) and destabilizer rows (below)
        # it anticommutes with
        flips = [self.zcols[q] for q in keep] + [self.xcols[q] for q in keep]
        elements = []  # (x, z, phase): i^phase X^x Z^z over keep bits
        for combo in relations([f >> cap for f in flips]):
            gens = 0
            for u, f in enumerate(flips):
                if (combo >> u) & 1:
                    gens ^= f
            elements.append(self._product(gens & ((1 << cap) - 1), keep))
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
            rx, rz, rs = self.stab_row(low.bit_length() - 1)
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
