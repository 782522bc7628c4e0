"""Pure-Python stabilizer tableau kernel.

Column-major layout: for each qubit there is one X plane and one Z plane,
each a Python integer whose bit i is the row-i entry (rows 0..n-1 are
destabilizers, rows n..2n-1 stabilizers).  Row signs live in one integer
plane.  Single- and two-qubit gates are then O(1) big-integer operations.  A
random measurement is one scan, then the pivot rows' support: one C-level
scan finds the columns where the pivot stabilizer row or the destabilizer
it overwrites has a bit, and only those columns run the bit-sliced row sums
and the pivot-row moves, which keeps this fallback usable at a few hundred
qubits.

Row i represents the Pauli (-1)^{sign_i} * prod_j letter(x_ij, z_ij) with
letter(1,1) = Y.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_, or_


class TableauKernel:
    """CHP-style tableau for |0...0> plus Clifford gates and measurement."""

    __slots__ = ("n", "xcols", "zcols", "signs")

    def __init__(self, n: int, _raw: bool = False):
        self.n = n
        if _raw:
            return
        # Destabilizer i = X_i (row i), stabilizer i = Z_i (row n+i).
        self.xcols = [1 << i for i in range(n)]
        self.zcols = [1 << (n + i) for i in range(n)]
        self.signs = 0

    def copy(self) -> "TableauKernel":
        t = TableauKernel(self.n, _raw=True)
        t.xcols = list(self.xcols)
        t.zcols = list(self.zcols)
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
        full = (1 << (2 * self.n)) - 1
        self.signs ^= xc & zt & (full ^ xt ^ zc)
        self.xcols[t] = xt ^ xc
        self.zcols[c] = zc ^ zt

    def x(self, q: int) -> None:
        self.signs ^= self.zcols[q]

    def y(self, q: int) -> None:
        self.signs ^= self.xcols[q] ^ self.zcols[q]

    def z(self, q: int) -> None:
        self.signs ^= self.xcols[q]

    def apply_pauli(self, xmask: int, zmask: int) -> None:
        """Apply X^xmask Z^zmask (phases are global, not tracked here)."""
        flips = 0
        q = 0
        while xmask >> q:
            if (xmask >> q) & 1:
                flips ^= self.zcols[q]
            q += 1
        q = 0
        while zmask >> q:
            if (zmask >> q) & 1:
                flips ^= self.xcols[q]
            q += 1
        self.signs ^= flips

    # -- measurement -------------------------------------------------------
    def _row_bits(self, row: int) -> tuple[int, int, int]:
        x = z = 0
        for j in range(self.n):
            x |= ((self.xcols[j] >> row) & 1) << j
            z |= ((self.zcols[j] >> row) & 1) << j
        return x, z, (self.signs >> row) & 1

    def stab_row(self, i: int) -> tuple[int, int, int]:
        """Stabilizer generator i as (xmask, zmask, signbit)."""
        return self._row_bits(self.n + i)

    def destab_row(self, i: int) -> tuple[int, int, int]:
        return self._row_bits(i)

    def column(self, q: int) -> tuple[int, int]:
        """Qubit q's (X plane, Z plane): bit i is row i's entry."""
        return self.xcols[q], self.zcols[q]

    def peek(self, q: int) -> tuple[bool, int]:
        """(is_random, value): value valid only when deterministic."""
        if self.xcols[q] >> self.n:
            return True, 0
        return False, self._deterministic_value(q)

    def _deterministic_value(self, q: int) -> int:
        n = self.n
        xcols, zcols = self.xcols, self.zcols
        # Select stabilizer rows indexed by destabilizer x-bits at q; a
        # column with no X in those rows adds nothing, so one scan finds
        # the columns to count.
        sel = (xcols[q] & ((1 << n) - 1)) << n
        acc = 2 * (self.signs & sel).bit_count()
        for j in compress(range(n), map(and_, xcols, repeat(sel))):
            acc += ((zcols[j] & sel).bit_count()
                    * (xcols[j] & sel).bit_count())
        return (acc >> 1) & 1

    def measure(self, q: int, random_bit: int) -> tuple[int, bool]:
        """Measure qubit q; random_bit is consumed only for random outcomes.

        One scan, then the pivot rows' support: rows p and d = p-n are
        never in ``sel``, so the row sums into ``sel`` and the move
        "destabilizer d := row p, row p := Z_q" share one loop, each column
        reading its own row-p bits.  A column where rows p and d are both
        clear is left as it is: its phase terms add b and then 3b (0 mod 4),
        it takes no row sum and it has no pivot bit to move, so the loop
        runs only over the columns the scan finds."""
        n = self.n
        xcols, zcols = self.xcols, self.zcols
        anti = xcols[q] >> n
        if not anti:
            return self._deterministic_value(q), False
        d = (anti & -anti).bit_length() - 1  # first anticommuting stab row
        p = n + d
        pbit, dbit = 1 << p, 1 << d
        keep = ~(pbit | dbit)
        sel = xcols[q] & keep
        # Two-bit accumulator per row of (|xi&zi| - |xi'&zi'| + 2|zp&xi|
        # + |xp&zp|) mod 4; the final result is 0 or 2 and bit 1 is the flip.
        lo = hi = 0
        c1 = 0  # |xp & zp| scalar
        # Lazy is safe: the loop writes only column j, which the scan passed.
        touched = compress(range(n), map(and_, map(or_, xcols, zcols),
                                         repeat(pbit | dbit)))
        for j in touched:
            xq, zq = xcols[j], zcols[j]
            xpj, zpj = (xq >> p) & 1, (zq >> p) & 1
            b = xq & zq                      # + |xi & zi|
            hi ^= lo & b
            lo ^= b
            if xpj:
                xq ^= sel
            if zpj:
                hi ^= xcols[j]               # + 2 |zp & xi|
                zq ^= sel
            b = xq & zq                      # - |xi' & zi'| == +3|..| mod 4
            hi ^= lo & b
            lo ^= b
            hi ^= b
            # destabilizer p-n := old stabilizer p; stabilizer p cleared
            xq &= keep
            zq &= keep
            if xpj:
                xq |= dbit
                c1 += zpj
            if zpj:
                zq |= dbit
            xcols[j], zcols[j] = xq, zq
        zcols[q] |= pbit
        # add scalar (c1 + 2*rp) mod 4 over all rows
        signs = self.signs
        c = (c1 + 2 * ((signs >> p) & 1)) & 3
        if c & 1:
            hi ^= lo
            lo = ~lo
        if c & 2:
            hi = ~hi
        signs ^= hi & sel
        # sign of destabilizer p-n := rp, stabilizer p := (-1)^{random_bit}
        signs = (signs & keep) | (dbit if (signs >> p) & 1 else 0)
        self.signs = signs | (pbit if random_bit else 0)
        return random_bit & 1, True

    # -- resizing ----------------------------------------------------------
    def expand(self, k: int) -> None:
        """Append k fresh qubits in |0>."""
        n, n2 = self.n, self.n + k
        dmask = (1 << n) - 1

        def remap(plane: int) -> int:
            return (plane & dmask) | ((plane >> n) << n2)

        self.xcols = [remap(p) for p in self.xcols]
        self.zcols = [remap(p) for p in self.zcols]
        self.signs = remap(self.signs)
        for i in range(k):
            self.xcols.append(1 << (n + i))
            self.zcols.append(1 << (n2 + n + i))
        self.n = n2
