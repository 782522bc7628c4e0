"""Stabilizer-sum backend: amplitude-weighted sums of stabilizer terms.

Every term is a stabilizer state kept in affine canonical form over a frame
shared by the whole sum:

    |psi> = sum_t  c_t * 2^{-k/2} * sum_{u in GF(2)^k}
            i^{(d + 2 e_t) . u} * (-1)^{sum_{m<w} Q_mw u_m u_w} |A u xor b_t>

with A (n x k, full column rank), Q (symmetric, zero diagonal) and d shared,
and per-term data (b_t, e_t, c_t).  Clifford gates update the shared frame
with per-term corrections that stay inside this family, so stabilizer-state
inner products degenerate to coset/offset comparisons: parallel affine
supports are equal or disjoint, no general inner-product routine is needed.
Measurement probabilities with interference between terms are exact, and
the reduced density is read from Pauli expectations, each a key match in
the frame (Bravyi et al.'s low-rank overlap, arXiv:1808.00128).

The frame is GF(2) bit-planes in Python integers: A one per column (bit r
is row r), Q one per row, d two planes (``d0``, ``d1``: the low and high
bits), each term's b and e one each.  A new column goes last and a dropped
one closes the gap; only the amplitudes ``coeffs`` are a numpy array.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, repeat
from operator import and_, neg, or_

import numpy as np

from ..gf2 import relations
from ..paulis import PauliOperator
from .blocks import BlockCalls

MAX_QUBITS = 256
MAX_TERMS = 1024

_OMEGA = np.exp(1j * np.pi / 4)
_SQRT2 = np.sqrt(2.0)


def _ones(x: int):
    """The positions of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _meeting(masks: list[int], bits: int):
    """The indices of the masks that share a bit with ``bits``, in
    increasing order.  Lazy, so a loop may change a mask it has passed."""
    return compress(count(), map(and_, masks, repeat(bits)))


class StabilizerSum(BlockCalls):
    def __init__(self, n: int = 0):
        self.n = 0
        self.k = 0
        self.cols: list[int] = []  # A, one integer per column
        self.Q: list[int] = []  # Q, one integer per row
        self.d0 = self.d1 = 0
        self.bs = [0]
        self.es = [0]
        self.coeffs = np.ones(1, dtype=complex)
        # stable qubit ids over reusable rows: discarded (collapsed) qubits
        # free their row so long protocols stay inside the qubit cap
        self._row_of: dict[int, int] = {}
        self._free_rows: list[int] = []
        self._next_id = 0
        # True while the sum is known to be canonical: ``canonicalize``
        # sets it, and every change that can break that form clears it
        self._canonical = False
        if n:
            self.append_qubits(n)

    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    def _row(self, qubit_id: int) -> int:
        try:
            return self._row_of[qubit_id]
        except KeyError:
            raise ValueError(f"no live qubit {qubit_id!r}") from None

    def append_qubits(self, k: int) -> list[int]:
        self._canonical = False
        ids = []
        for _ in range(k):
            if self._free_rows:
                row = self._free_rows.pop()
            else:
                if self.n + 1 > MAX_QUBITS:
                    raise ValueError(
                        "stabilizer-sum backend capped at 256 qubits")
                row = self.n
                self.n += 1
            qid = self._next_id
            self._next_id += 1
            self._row_of[qid] = row
            ids.append(qid)
        return ids

    def discard(self, qubits) -> None:
        """Free collapsed qubits; their rows become reusable."""
        self._canonical = False
        for qid in list(qubits):
            q = self._row(qid)
            if self._row_bits(q) or len({b >> q & 1 for b in self.bs}) > 1:
                raise ValueError("discard requires a collapsed qubit")
            self.bs = [b & ~(1 << q) for b in self.bs]
            del self._row_of[qid]
            self._free_rows.append(q)

    # -- phase-form plumbing -------------------------------------------
    def _row_bits(self, j: int) -> int:
        """Row j of A, as a mask over the columns."""
        row = 0
        for c in _meeting(self.cols, 1 << j):
            row |= 1 << c
        return row

    def _d(self, c: int) -> int:
        return (self.d0 >> c & 1) | (self.d1 >> c & 1) << 1

    def _add_d(self, mask: int, value: int) -> None:
        """d_c += value (mod 4) for every column c in mask."""
        if value & 1:
            self.d1 ^= self.d0 & mask
            self.d0 ^= mask
        if value & 2:
            self.d1 ^= mask

    def _toggle_q(self, mask: int) -> None:
        """Q_mw ^= 1 for every pair m != w of columns in mask."""
        for m in _ones(mask):
            self.Q[m] ^= mask ^ (1 << m)

    def _grow_column(self) -> int:
        self.cols.append(0)
        self.Q.append(0)
        self.k += 1
        return self.k - 1

    def _drop_columns(self, drop) -> None:
        for c in sorted(drop, reverse=True):
            del self.cols[c], self.Q[c]
            low, high = (1 << c) - 1, -1 << c
            self.Q = [q & low | q >> 1 & high for q in self.Q]
            self.es = [e & low | e >> 1 & high for e in self.es]
            self.d0 = self.d0 & low | self.d0 >> 1 & high
            self.d1 = self.d1 & low | self.d1 >> 1 & high
            self.k -= 1

    def _lift_xor(self, support: int, coeff: int, const_bits) -> None:
        """Multiply phases by i^{coeff * ((+)_{m in support} u_m xor const_t)}."""
        coeff &= 3
        if coeff == 0:
            return
        self._add_d(support, coeff)
        if coeff & 1:
            self._toggle_q(support)
        hit = [t for t, bit in enumerate(const_bits) if bit]
        if hit:
            self.coeffs[hit] *= 1j ** coeff
            if coeff & 1:
                for t in hit:
                    self.es[t] ^= support

    def _subst_xor(self, m: int, v: int) -> None:
        """Variable change u_m <- u_m xor u_v (column op col_v ^= col_m)."""
        Q = self.Q
        dm = self._d(m)
        qrow = Q[m] & ~(1 << v)
        self._add_d(1 << v, dm + 2 * (Q[m] >> v & 1))
        self.cols[v] ^= self.cols[m]
        self.es = [e ^ (e >> m & 1) << v for e in self.es]
        Q[v] ^= qrow
        for w in _ones(qrow):
            Q[w] ^= 1 << v
        if dm & 1:
            Q[m] ^= 1 << v
            Q[v] ^= 1 << m

    def _subst_affine(self, p: int, members: int, const_bits) -> None:
        """Variable elimination u_p <- ((+)_{m in members} u_m) xor const_t.

        Leaves variable p's own entries as they were; the caller drops
        column p right after.
        """
        mem = members & ~(1 << p)
        hit = [t for t, bit in enumerate(const_bits) if bit]
        dp, qp, colp = self._d(p), self.Q[p], self.cols[p]
        ep = [e >> p & 1 for e in self.es]
        # A and b
        for m in _ones(mem):
            self.cols[m] ^= colp
        for t in hit:
            self.bs[t] ^= colp
        # d_p * u_p
        self._add_d(mem, dp)
        if dp & 1:
            self._toggle_q(mem)
        if (dp & 3) and hit:
            self.coeffs[hit] *= 1j ** (dp & 3)
        # 2 e_p u_p
        self.coeffs *= (-1.0) ** np.array(
            [e & c for e, c in zip(ep, const_bits)], dtype=np.uint8)
        # 2 Q[p, w] u_p u_w
        for r in _ones(mem):
            self.Q[r] ^= qp
        for r in _ones(qp):
            self.Q[r] ^= mem
        self._add_d(mem & qp, 2)
        # the e words' share of the three parts above: mem where e_p is
        # set; where const_t is, Q[p], and mem too for an odd d_p
        flip = qp ^ (mem if dp & 1 else 0)
        self.es = [e ^ (mem if e_p else 0) ^ (flip if c else 0)
                   for e, e_p, c in zip(self.es, ep, const_bits)]

    def _eliminate_free_column(self, m: int) -> None:
        """Sum out variable m whose A-column is zero (after an H gate)."""
        dd = self._d(m)
        lam = self.Q[m]
        ee = [e >> m & 1 for e in self.es]
        # m's own entries stay stale until its column is dropped below: the
        # steps in between carry them only into m's own entries
        if dd & 1:
            # sum_v i^{(dd+2e)v} (-1)^{(Lam.u)v} = sqrt(2) w^{+-1}; the sqrt(2)
            # cancels against the 2^{-k/2} normalization shift.
            g = [int((dd + 2 * e) & 3 == 3) for e in ee]
            self.coeffs = self.coeffs * _OMEGA
            self._lift_xor(lam, 3, g)
            self._drop_columns([m])
            return
        # lam is never empty: Q couples the H gate's new column to the
        # columns summed into m an odd number of times
        p = lam.bit_length() - 1
        self._subst_affine(p, lam ^ (1 << p), [(dd >> 1 & 1) ^ e for e in ee])
        self._drop_columns([m, p])

    def _prune(self) -> None:
        mags = np.abs(self.coeffs)
        top = mags.max(initial=0.0)
        keep = mags > max(top * 1e-13, 1e-300)
        if not keep.all():
            if not keep.any():
                raise ValueError("state annihilated (zero-probability branch)")
            self.bs = [b for b, kept in zip(self.bs, keep) if kept]
            self.es = [e for e, kept in zip(self.es, keep) if kept]
            self.coeffs = self.coeffs[keep]

    # -- canonical form and merging --------------------------------------
    def canonicalize(self) -> None:
        """Column-RREF the frame, reduce every b to its coset representative,
        and merge identical terms.  A no-op while the sum is known to be
        in this form."""
        if self._canonical:
            return
        cols, k = self.cols, self.k
        # Forward pass: clear each column on the earlier pivots' rows, in
        # pivot order, and make its first remaining row its pivot; piv[c]
        # is column c's pivot row as a one-bit mask.  While no column
        # meets an earlier one's first row, each pivot is its column's
        # first row: find that prefix in one go.
        piv = list(map(and_, cols, map(neg, cols)))
        before = list(accumulate(piv, or_, initial=0))
        start = next(compress(count(), map(and_, cols, before)), k)
        pivots = before[start]
        for c in range(start, k):
            if cols[c] & pivots:
                for m in range(c):
                    if cols[c] & piv[m]:
                        self._subst_xor(m, c)
            piv[c] = cols[c] & -cols[c]
            pivots |= piv[c]
        if not all(piv):
            raise AssertionError("frame lost full column rank")
        # Back-reduction: pivot c clears its row in the other columns.  That
        # changes only rows of later pivots that column c already meets, so
        # the dirty rows are known up front.
        dirty = 0
        for col, bit in zip(cols, piv):
            dirty |= col & pivots ^ bit
        for c in _meeting(piv, dirty):
            for c2 in _meeting(cols, piv[c]):
                if c2 != c:
                    self._subst_xor(c, c2)
        self._reduce_b(self.bs, self.es, self.coeffs)
        self._merge()
        self._canonical = True

    def _reduce_b(self, bs: list[int], es: list[int], coeffs) -> None:
        """Return terms to their canonical (b, e) keys over the column-RREF
        frame, in place: u -> u xor e_c clears b on column c's pivot row
        and leaves the other pivot rows as they are."""
        hits = 0
        for b in bs:
            hits |= b
        piv = [col & -col for col in self.cols]
        for c in _meeting(piv, hits):
            hit = list(_meeting(bs, piv[c]))
            dc = self._d(c)
            ec = np.array([es[t] >> c & 1 for t in hit], dtype=np.uint8)
            coeffs[hit] *= (1j ** dc) * ((-1.0) ** ec)
            flip = self.Q[c] ^ (dc & 1) << c
            for t in hit:
                es[t] ^= flip
                bs[t] ^= self.cols[c]

    def _merge(self) -> None:
        order: dict[tuple[int, int], int] = {}  # (b, e) -> slot in new_c
        new_c = []
        for t, key in enumerate(zip(self.bs, self.es)):
            if key in order:
                new_c[order[key]] += self.coeffs[t]
            else:
                order[key] = len(new_c)
                new_c.append(self.coeffs[t])
        if len(new_c) < self.num_terms:
            self.bs = [b for b, _ in order]
            self.es = [e for _, e in order]
            self.coeffs = np.array(new_c, dtype=complex)
        self._prune()

    # -- gates -----------------------------------------------------------
    def apply_gate(self, name: str, *qubit_ids: int) -> None:
        qubits = tuple(map(self._row, qubit_ids))
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate gate targets")
        self._canonical = False
        if name == "X":
            bit = 1 << qubits[0]
            self.bs = [b ^ bit for b in self.bs]
        elif name == "Z":
            j = qubits[0]
            self._lift_xor(self._row_bits(j), 2, ())
            self.coeffs *= (-1.0) ** np.array([b >> j & 1 for b in self.bs],
                                              dtype=np.uint8)
        elif name == "K":
            j = qubits[0]
            self._lift_xor(self._row_bits(j), 1, [b >> j & 1 for b in self.bs])
        elif name == "Y":
            j = qubit_ids[0]
            self.apply_gate("Z", j)
            self.apply_gate("X", j)
            self.coeffs *= 1j
        elif name == "CNOT":
            c, t = qubits
            bit = 1 << t
            for m in _meeting(self.cols, 1 << c):
                self.cols[m] ^= bit
            self.bs = [b ^ bit if b >> c & 1 else b for b in self.bs]
        elif name == "H":
            self._hgate(qubits[0])
        else:
            raise ValueError(f"unknown gate {name!r}")

    def _hgate(self, j: int) -> None:
        bit = 1 << j
        sup = self._row_bits(j)
        m_new = self._grow_column()
        new = 1 << m_new
        for c in _ones(sup):
            self.cols[c] ^= bit
            self.Q[c] ^= new
        self.cols[m_new] = bit
        self.Q[m_new] = sup
        self.es = [e | new if b & bit else e for b, e in zip(self.bs, self.es)]
        self.bs = [b & ~bit for b in self.bs]
        # A had full column rank, so the columns have at most one relation
        # gamma (bit c selects column c), and none if row j was zero
        found = relations(self.cols) if sup else []
        if not found:
            return
        gamma = found[0]
        m_star = gamma.bit_length() - 1
        for m in _ones(gamma ^ (1 << m_star)):
            self._subst_xor(m, m_star)
        self._eliminate_free_column(m_star)

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        self._canonical = False
        self.coeffs *= 1j ** p.phase_exp
        for jj, q in enumerate(qubits):
            xb, zb = (p.x >> jj) & 1, (p.z >> jj) & 1
            if zb:
                self.apply_gate("Z", q)
            if xb:
                self.apply_gate("X", q)

    def inject_magic(self) -> list[int]:
        """Append one qubit in T magic |0> + e^{i pi/4}|1> (normalized),
        which splits each term in two; K and H magic are made from gates."""
        if 2 * self.num_terms > MAX_TERMS:
            raise ValueError("stabilizer-sum rank budget exceeded")
        self._canonical = False
        ids = self.append_qubits(1)
        m = self._grow_column()
        self.cols[m] = 1 << self._row(ids[0])
        alpha = (1 + np.exp(1j * np.pi / 4)) / 2
        beta = (1 - np.exp(1j * np.pi / 4)) / 2
        self.bs = self.bs + self.bs
        self.es = self.es + [e ^ (1 << m) for e in self.es]
        self.coeffs = np.concatenate(
            [self.coeffs * alpha, self.coeffs * beta])
        return ids

    # -- measurement -------------------------------------------------------
    def _project(self, j: int, y: int, row: int) -> None:
        bj = [b >> j & 1 for b in self.bs]
        if not row:
            # dropping terms keeps the canonical form
            self.coeffs = np.where(np.array(bj) == y, self.coeffs, 0.0)
            self._prune()
            return
        self._canonical = False
        p = row.bit_length() - 1
        self._subst_affine(p, row ^ (1 << p), [bit ^ y for bit in bj])
        self._drop_columns([p])
        bit = 1 << j
        self.bs = [b | bit if y else b & ~bit for b in self.bs]
        self.coeffs = self.coeffs / _SQRT2
        self.canonicalize()

    def _sq_norm(self) -> float:
        return float((np.abs(self.coeffs) ** 2).sum())

    def _z_norms(self, j: int, row: int) -> tuple[float, float]:
        """Squared norms of the projections of row j onto Z = 0 and Z = 1,
        read off the canonical form without projecting.

        Distinct canonical terms are orthogonal, and so are their halves
        unless the two terms share b and their e words differ by exactly
        the row A[j] (the character the outcome bit imposes on u): such a
        pair adds (-1)^(y xor b_j) Re(conj(c_t) c_t') to outcome y.  With
        a zero row the outcome is b_j in every term.  ``row`` is row j of
        A (``_row_bits(j)``)."""
        mags = np.abs(self.coeffs) ** 2
        bj = [b >> j & 1 for b in self.bs]
        if not row:
            one = np.array(bj, dtype=bool)
            return float(mags[~one].sum()), float(mags[one].sum())
        half = 0.5 * float(mags.sum())
        shift = 0.0
        if self.num_terms > 1:
            terms = list(zip(self.bs, self.es))
            index = {key: t for t, key in enumerate(terms)}
            for t, (b, e) in enumerate(terms):
                u = index.get((b, e ^ row), -1)
                if u > t:
                    re = (self.coeffs[t].conjugate() * self.coeffs[u]).real
                    shift += -re if bj[t] else re
        return half + shift, half - shift

    def z_probabilities(self, qubit_id: int) -> tuple[float, float]:
        return self._z_read(qubit_id)[:2]

    def _z_read(self, qubit_id: int) -> tuple[float, float, int, int]:
        """The outcome probabilities of the canonical form, the qubit's row
        j and row j of A, read once."""
        self.canonicalize()
        j = self._row(qubit_id)
        row = self._row_bits(j)
        n0, n1 = self._z_norms(j, row)
        tot = n0 + n1
        return n0 / tot, n1 / tot, j, row

    def measure(self, qubit_id: int, rng):
        """One Born draw from the canonical form's probabilities, then the
        drawn outcome alone is projected and renormalised; both read row j
        of A once."""
        p0, p1, j, row = self._z_read(qubit_id)
        bit = 1 if rng.random() < p1 else 0
        prob = p1 if bit else p0
        if prob <= 1e-14:
            return bit, 0.0
        self._project(j, bit, row)
        self.coeffs = self.coeffs / np.sqrt(self._sq_norm())
        return bit, prob

    # -- inspection ---------------------------------------------------------
    def density_of(self, qubits) -> np.ndarray:
        """Reduced density matrix on the listed qubits (<= 12), the first
        listed most significant: rho = 2^-m sum_{x,z} conj(<Z^z X^x>)
        Z^z X^x over the m kept qubits.

        Each expectation is an overlap in the canonical frame, where
        distinct (b, e) keys are orthogonal terms: X^x XORs the kept rows
        into every b, and the b-reduction returns each term to its key;
        Z^z XORs the kept rows of A into every e and signs each
        coefficient by (-1)^{z.b}.  Only the (x, z) pairs whose image
        meets a key of the sum are visited."""
        keep = [self._row(q) for q in qubits]
        m = len(keep)
        if m > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        self.canonicalize()
        dim = 1 << m
        # bit m-1-p of a pattern is kept qubit p: each pattern's rows, the
        # e flip of Z on them, and the patterns z indexed by that flip
        rows, flips, zs_of = [0] * dim, [0] * dim, {0: [0]}
        for z in range(1, dim):
            low = z & -z
            q = keep[m - low.bit_length()]
            rows[z] = rows[z ^ low] | 1 << q
            flips[z] = flips[z ^ low] ^ self._row_bits(q)
            zs_of.setdefault(flips[z], []).append(z)
        by_b: dict[int, list] = {}
        for b, e, c in zip(self.bs, self.es, self.coeffs.conj()):
            by_b.setdefault(b, []).append((e, c))
        expect: dict[int, np.ndarray] = {}  # x -> <Z^z X^x> over all z
        for x in range(dim):
            bs, es = [b ^ rows[x] for b in self.bs], self.es[:]
            coeffs = self.coeffs.copy()
            self._reduce_b(bs, es, coeffs)
            for b, e, c in zip(bs, es, coeffs):
                for e0, c0 in by_b.get(b, ()):
                    zs = zs_of.get(e ^ e0)
                    if zs is None:
                        continue
                    expect.setdefault(x, np.zeros(dim, dtype=complex))[zs] += [
                        c0 * c * (-1) ** (rows[z] & b).bit_count() for z in zs]
        # the sum over z is a Walsh-Hadamard transform of each row
        table, h = np.conj(np.array(list(expect.values()))), 1
        while h < dim:
            pairs = table.reshape(len(expect), -1, 2, h)
            table = np.stack((pairs[:, :, 0] + pairs[:, :, 1],
                              pairs[:, :, 0] - pairs[:, :, 1]), axis=2)
            h *= 2
        rho = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for x, row in zip(expect, table.reshape(len(expect), dim)):
            rho[idx, idx ^ x] = row / dim
        return rho
