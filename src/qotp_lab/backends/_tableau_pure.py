"""Pure-Python stabilizer tableau kernel.

Column-major layout over a row capacity C >= n: for each qubit there is one
X plane and one Z plane, each a Python integer whose bit i is the row-i
entry.  Rows 0..n-1 are destabilizers and rows C..C+n-1 stabilizers; the
rows in between stay zero, so appending a qubit inside the capacity is one
plane per qubit and only a growth past C (which doubles it) remaps the
columns.  Row signs live in one integer plane.  Single- and two-qubit gates
are then O(1) big-integer operations.  A random measurement is one scan,
then the pivot rows' support: one C-level scan of each column's support
plane (x | z, kept beside the X and Z planes) finds the columns where the
pivot stabilizer row or its destabilizer has a bit, and only those columns
run the bit-sliced row sums and the pivot-row clears, which keeps this
fallback usable at a few hundred qubits.

Row i represents the Pauli (-1)^{sign_i} * prod_j letter(x_ij, z_ij) with
letter(1,1) = Y.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_


class TableauKernel:
    """CHP-style tableau for |0...0> plus Clifford gates and measurement."""

    __slots__ = ("n", "_cap", "xcols", "zcols", "supp", "signs")

    def __init__(self, n: int, _raw: bool = False):
        self.n = self._cap = n
        if _raw:
            return
        # Destabilizer i = X_i (row i), stabilizer i = Z_i (row C+i).
        self.xcols = [1 << i for i in range(n)]
        self.zcols = [1 << (n + i) for i in range(n)]
        # each column's support x | z, which only a CNOT or a measurement
        # changes; a random measurement scans it for the pivot rows
        self.supp = [x | z for x, z in zip(self.xcols, self.zcols)]
        self.signs = 0

    def copy(self) -> "TableauKernel":
        t = TableauKernel(self.n, _raw=True)
        t._cap = self._cap
        t.xcols = list(self.xcols)
        t.zcols = list(self.zcols)
        t.supp = list(self.supp)
        t.signs = self.signs
        return t

    # -- gates -------------------------------------------------------------
    def h(self, q: int) -> None:
        xq, zq = self.xcols[q], self.zcols[q]
        self.signs ^= xq & zq
        self.xcols[q], self.zcols[q] = zq, xq

    def k(self, q: int) -> None:
        xq = self.xcols[q]
        self.signs ^= xq & self.zcols[q]
        self.zcols[q] ^= xq

    def cx(self, c: int, t: int) -> None:
        xc, zc = self.xcols[c], self.zcols[c]
        xt, zt = self.xcols[t], self.zcols[t]
        self.signs ^= xc & zt & ~(xt ^ zc)
        self.xcols[t] = xt = xt ^ xc
        self.zcols[c] = zc = zc ^ zt
        self.supp[t] = xt | zt
        self.supp[c] = xc | zc

    def x(self, q: int) -> None:
        self.signs ^= self.zcols[q]

    def z(self, q: int) -> None:
        self.signs ^= self.xcols[q]

    # -- measurement -------------------------------------------------------
    def _row_bits(self, row: int) -> tuple[int, int, int]:
        x = z = 0
        for j in range(self.n):
            x |= ((self.xcols[j] >> row) & 1) << j
            z |= ((self.zcols[j] >> row) & 1) << j
        return x, z, (self.signs >> row) & 1

    def stab_row(self, i: int) -> tuple[int, int, int]:
        """Stabilizer generator i as (xmask, zmask, signbit)."""
        return self._row_bits(self._cap + i)

    def destab_row(self, i: int) -> tuple[int, int, int]:
        return self._row_bits(i)

    def column(self, q: int) -> tuple[int, int]:
        """Qubit q's (X plane, Z plane) over 2n rows: bit i < n is
        destabilizer i's entry, bit n + i stabilizer i's."""
        n, cap = self.n, self._cap
        low = (1 << n) - 1
        return tuple((p & low) | ((p >> cap) << n)
                     for p in (self.xcols[q], self.zcols[q]))

    def peek(self, q: int) -> tuple[bool, int]:
        """(is_random, value): value valid only when deterministic."""
        if self.xcols[q] >> self._cap:
            return True, 0
        return False, self._deterministic_value(q)

    def _deterministic_value(self, q: int) -> int:
        """The sign of Z_q as the product of the stabilizer rows selected
        by the destabilizer X bits at q.

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
        for j in compress(range(self.n), map(and_, xcols, repeat(sel))):
            xs, zs = xcols[j] & sel, zcols[j] & sel
            acc += (xs & zs).bit_count()
            while xs:
                low = xs & -xs
                acc += 2 * (zs & (low - 1)).bit_count()
                xs ^= low
        return (acc >> 1) & 1

    def measure(self, q: int, random_bit) -> tuple[int, bool]:
        """Measure qubit q; returns (bit, is_random).

        ``random_bit`` is the outcome of a random measurement: an int, or a
        callable that draws it, called only when the outcome is random.

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
        cap = self._cap
        xcols, zcols, supp = self.xcols, self.zcols, self.supp
        anti = xcols[q] >> cap
        if not anti:
            return self._deterministic_value(q), False
        if callable(random_bit):
            random_bit = random_bit()
        bit = int(random_bit) & 1
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
        touched = compress(range(self.n), map(and_, supp,
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
        return bit, True

    # -- resizing ----------------------------------------------------------
    def expand(self, k: int) -> None:
        """Append k fresh qubits in |0>."""
        n, n2 = self.n, self.n + k
        if n2 > self._cap:
            self._regrow(max(2 * self._cap, n2))
        cap = self._cap
        self.xcols += [1 << i for i in range(n, n2)]
        self.zcols += [1 << (cap + i) for i in range(n, n2)]
        self.supp += [(1 | 1 << cap) << i for i in range(n, n2)]
        self.n = n2

    def _regrow(self, cap: int) -> None:
        """Move the stabilizer rows up to a capacity of ``cap`` rows."""
        old, low = self._cap, (1 << self.n) - 1

        def remap(planes: list) -> list:
            return [(p & low) | ((p >> old) << cap) for p in planes]

        self.xcols = remap(self.xcols)
        self.zcols = remap(self.zcols)
        self.supp = remap(self.supp)
        self.signs = remap([self.signs])[0]
        self._cap = cap
