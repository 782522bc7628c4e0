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
Measurement probabilities with interference between terms are exact.
"""

from __future__ import annotations

import numpy as np

from ..gf2 import relations
from ..paulis import PauliOperator

MAX_QUBITS = 256
MAX_TERMS = 1024

_OMEGA = np.exp(1j * np.pi / 4)
_SQRT2 = np.sqrt(2.0)


class StabilizerSum:
    def __init__(self, n: int = 0):
        self.n = 0
        self.k = 0
        self.A = np.zeros((0, 0), dtype=np.uint8)
        self.Q = np.zeros((0, 0), dtype=np.uint8)
        self.d = np.zeros(0, dtype=np.int64)
        self.bs = np.zeros((1, 0), dtype=np.uint8)
        self.es = np.zeros((1, 0), dtype=np.uint8)
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
                self.A = np.vstack(
                    [self.A, np.zeros((1, self.k), dtype=np.uint8)])
                self.bs = np.hstack(
                    [self.bs, np.zeros((self.num_terms, 1), dtype=np.uint8)])
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
            col = self.bs[:, q]
            if self.A[q].any() or (len(col) and col.max() != col.min()):
                raise ValueError("discard requires a collapsed qubit")
            self.A[q, :] = 0
            self.bs[:, q] = 0
            del self._row_of[qid]
            self._free_rows.append(q)

    # -- phase-form plumbing -------------------------------------------
    def _grow_column(self) -> int:
        m = self.k
        self.A = np.hstack([self.A, np.zeros((self.n, 1), dtype=np.uint8)])
        self.Q = np.pad(self.Q, ((0, 1), (0, 1)))
        self.d = np.append(self.d, 0)
        self.es = np.hstack(
            [self.es, np.zeros((self.num_terms, 1), dtype=np.uint8)])
        self.k += 1
        return m

    def _drop_columns(self, cols) -> None:
        keep = [c for c in range(self.k) if c not in set(cols)]
        self.A = self.A[:, keep]
        self.Q = self.Q[np.ix_(keep, keep)]
        self.d = self.d[keep]
        self.es = self.es[:, keep]
        self.k = len(keep)

    def _lift_xor(self, support: np.ndarray, coeff: int,
                  const_bits: np.ndarray) -> None:
        """Multiply phases by i^{coeff * ((+)_{m in support} u_m xor const_t)}."""
        coeff &= 3
        if coeff == 0:
            return
        sup = support.astype(bool)
        self.d[sup] = (self.d[sup] + coeff) & 3
        if coeff & 1:
            idx = np.flatnonzero(sup)
            if len(idx) > 1:
                self.Q[np.ix_(idx, idx)] ^= 1
                self.Q[idx, idx] = 0
        cb = const_bits.astype(bool)
        if cb.any():
            self.coeffs[cb] *= 1j ** coeff
            if coeff & 1:
                self.es[np.ix_(cb, sup)] ^= 1

    def _subst_xor(self, m: int, v: int) -> None:
        """Variable change u_m <- u_m xor u_v (column op col_v ^= col_m)."""
        dm = int(self.d[m])
        qmv = int(self.Q[m, v])
        qrow = self.Q[m].copy()
        qrow[m] = qrow[v] = 0
        self.A[:, v] ^= self.A[:, m]
        self.es[:, v] ^= self.es[:, m]
        self.d[v] = (self.d[v] + dm + 2 * qmv) & 3
        self.Q[v, :] ^= qrow
        self.Q[:, v] ^= qrow
        self.Q[v, v] = 0
        if dm & 1:
            self.Q[m, v] ^= 1
            self.Q[v, m] ^= 1

    def _subst_affine(self, p: int, members: np.ndarray,
                      const_bits: np.ndarray) -> None:
        """Variable elimination u_p <- ((+)_{m in members} u_m) xor const_t.

        Does not drop column p; the caller removes it afterwards.
        """
        mem = members.astype(bool)
        mem[p] = False
        cb = const_bits.astype(np.uint8)
        cbb = cb.astype(bool)
        dp = int(self.d[p])
        qp = self.Q[p].copy()
        qp[p] = 0
        ep = self.es[:, p].copy()
        colp = self.A[:, p].copy()
        midx = np.flatnonzero(mem)
        # A and b
        for m in midx:
            self.A[:, m] ^= colp
        if cbb.any():
            self.bs[cbb] ^= colp
        # d_p * u_p
        self.d[mem] = (self.d[mem] + dp) & 3
        if dp & 1 and len(midx) > 1:
            self.Q[np.ix_(midx, midx)] ^= 1
            self.Q[midx, midx] = 0
        if (dp & 3) and cbb.any():
            self.coeffs[cbb] *= 1j ** (dp & 3)
        if dp & 1:
            self.es[np.ix_(cbb, mem)] ^= 1
        # 2 e_p u_p
        if len(midx):
            self.es[:, midx] ^= ep[:, None]
        self.coeffs *= (-1.0) ** (ep * cb)
        # 2 Q[p, w] u_p u_w
        qidx = np.flatnonzero(qp)
        if len(qidx):
            toggle = np.zeros_like(self.Q)
            toggle[np.ix_(midx, qidx)] ^= 1
            toggle = toggle ^ toggle.T
            self.Q ^= toggle
            self.Q[np.arange(self.k), np.arange(self.k)] = 0
            both = mem & qp.astype(bool)
            self.d[both] = (self.d[both] + 2) & 3
            self.es[cbb] ^= qp[None, :].astype(np.uint8)
        # zero out consumed entries of p
        self.d[p] = 0
        self.Q[p, :] = 0
        self.Q[:, p] = 0
        self.es[:, p] = 0
        self.A[:, p] = 0

    def _null_vector(self) -> np.ndarray | None:
        """A nonzero gamma with A gamma = 0, if the columns are dependent:
        the one relation of the first column that the earlier ones span."""
        packed = np.packbits(self.A, axis=0)
        found = relations([int.from_bytes(packed[:, c].tobytes(), "big")
                           for c in range(self.k)])
        if not found:
            return None
        return ((found[0] >> np.arange(self.k)) & 1).astype(np.uint8)

    def _eliminate_free_column(self, m: int) -> None:
        """Sum out variable m whose A-column is zero."""
        dd = int(self.d[m])
        lam = self.Q[m].copy().astype(bool)
        lam[m] = False
        ee = self.es[:, m].copy()
        # consume m's entries
        self.d[m] = 0
        self.Q[m, :] = 0
        self.Q[:, m] = 0
        self.es[:, m] = 0
        if dd & 1:
            # sum_v i^{(dd+2e)v} (-1)^{(Lam.u)v} = sqrt(2) w^{+-1}; the sqrt(2)
            # cancels against the 2^{-k/2} normalization shift.
            g = (((dd + 2 * ee) & 3) == 3).astype(np.uint8)
            self.coeffs = self.coeffs * _OMEGA
            self._lift_xor(lam, 3, g)
            self._drop_columns([m])
            return
        c0 = (dd >> 1) & 1
        const = (c0 ^ ee).astype(np.uint8)
        if not lam.any():
            alive = const == 0
            self.coeffs = np.where(alive, self.coeffs * _SQRT2, 0.0)
            self._drop_columns([m])
            self._prune()
            return
        p = int(np.flatnonzero(lam)[-1])
        members = lam.copy()
        members[p] = False
        self._subst_affine(p, members, const)
        self._drop_columns([m, p])

    def _prune(self) -> None:
        mags = np.abs(self.coeffs)
        top = mags.max(initial=0.0)
        keep = mags > max(top * 1e-13, 1e-300)
        if not keep.all():
            if not keep.any():
                raise ValueError("state annihilated (zero-probability branch)")
            self.bs = self.bs[keep]
            self.es = self.es[keep]
            self.coeffs = self.coeffs[keep]

    # -- canonical form and merging --------------------------------------
    def canonicalize(self) -> None:
        """Column-RREF the frame, reduce every b to its coset representative,
        and merge identical terms.  A no-op while the sum is known to be
        in this form."""
        if self._canonical:
            return
        k = self.k
        A = self.A
        # Forward pass.  While no column meets an earlier pivot row, each
        # pivot is its column's first nonzero row: find that prefix in one
        # go, then continue column by column.  prow[c] is column c's pivot
        # row (a sum without rows has no columns).
        prow = A.argmax(axis=0) if self.n else np.zeros(0, dtype=np.intp)
        sub = A[prow]
        bad = np.triu(sub, 1).any(axis=0) | (np.diagonal(sub) == 0)
        start = int(np.argmax(bad)) if bad.any() else k
        free = np.ones(self.n, dtype=bool)  # rows not yet a pivot
        free[prow[:start]] = False
        for c in range(start, k):
            col = A[:, c]  # a view: the substitutions write through it
            m = 0  # clear the earlier pivots' rows, in pivot order
            while m < c:
                hit = np.flatnonzero(col[prow[m:c]])
                if not len(hit):
                    break
                m += int(hit[0])
                self._subst_xor(m, c)
                m += 1
            rows = np.flatnonzero(col.astype(bool) & free)
            if not len(rows):
                raise AssertionError("frame lost full column rank")
            prow[c] = rows[0]
            free[rows[0]] = False
        # Back-reduction: pivot c clears its row in the other columns, which
        # changes only the rows of later pivots.
        dirty = (A[prow] != np.eye(k, dtype=np.uint8)).any(axis=1)
        for c in range(int(np.argmax(dirty)) if dirty.any() else k, k):
            for c2 in np.flatnonzero(A[prow[c]]):
                if c2 != c:
                    self._subst_xor(c, int(c2))
        # b-reduction: shift terms (u -> u xor e_c) so b vanishes on pivot
        # rows; column c is zero on the other pivot rows, so the terms each
        # pivot shifts are known up front
        hits = self.bs[:, prow].astype(bool)
        for c in np.flatnonzero(hits.any(axis=0)):
            hit = hits[:, c]
            dc = int(self.d[c])
            ec = self.es[hit, c].copy()
            self.coeffs[hit] *= (1j ** dc) * ((-1.0) ** ec)
            if dc & 1:
                self.es[hit, c] = ec ^ 1
            self.es[hit] ^= self.Q[c][None, :]
            self.bs[hit] ^= self.A[:, c][None, :]
        self._merge()
        self._canonical = True

    def _merge(self) -> None:
        order: dict[bytes, int] = {}
        new_b, new_e, new_c = [], [], []
        for t in range(self.num_terms):
            key = self.bs[t].tobytes() + self.es[t].tobytes()
            if key in order:
                new_c[order[key]] += self.coeffs[t]
            else:
                order[key] = len(new_c)
                new_b.append(self.bs[t])
                new_e.append(self.es[t])
                new_c.append(self.coeffs[t])
        self.bs = np.array(new_b, dtype=np.uint8).reshape(len(new_c), self.n)
        self.es = np.array(new_e, dtype=np.uint8).reshape(len(new_c), self.k)
        self.coeffs = np.array(new_c, dtype=complex)
        self._prune()

    # -- gates -----------------------------------------------------------
    def apply_gate(self, name: str, *qubit_ids: int) -> None:
        qubits = tuple(self._row(q) for q in qubit_ids)
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate gate targets")
        self._canonical = False
        if name == "X":
            self.bs[:, qubits[0]] ^= 1
        elif name == "Z":
            j = qubits[0]
            self._lift_xor(self.A[j], 2, np.zeros(self.num_terms, dtype=np.uint8))
            self.coeffs *= (-1.0) ** self.bs[:, j]
        elif name == "K":
            j = qubits[0]
            self._lift_xor(self.A[j], 1, self.bs[:, j])
        elif name == "Y":
            j = qubit_ids[0]
            self.apply_gate("Z", j)
            self.apply_gate("X", j)
            self.coeffs *= 1j
        elif name == "CNOT":
            c, t = qubits
            self.A[t] ^= self.A[c]
            self.bs[:, t] ^= self.bs[:, c]
        elif name == "H":
            self._hgate(qubits[0])
        else:
            raise ValueError(f"unknown gate {name!r}")

    def _hgate(self, j: int) -> None:
        sup = self.A[j].copy().astype(bool)
        cj = self.bs[:, j].copy()
        m_new = self._grow_column()
        self.A[j, :] = 0
        self.A[j, m_new] = 1
        idx = np.flatnonzero(sup)
        if len(idx):
            self.Q[idx, m_new] ^= 1
            self.Q[m_new, idx] ^= 1
        self.es[:, m_new] = cj
        self.bs[:, j] = 0
        gamma = self._null_vector()
        if gamma is None:
            return
        sup_g = np.flatnonzero(gamma)
        m_star = int(sup_g[-1])
        for m in sup_g[:-1]:
            self._subst_xor(int(m), m_star)
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
        self.A[self._row(ids[0]), m] = 1
        alpha = (1 + np.exp(1j * np.pi / 4)) / 2
        beta = (1 - np.exp(1j * np.pi / 4)) / 2
        self.bs = np.vstack([self.bs, self.bs])
        es2 = self.es.copy()
        es2[:, m] ^= 1
        self.es = np.vstack([self.es, es2])
        self.coeffs = np.concatenate(
            [self.coeffs * alpha, self.coeffs * beta])
        return ids

    # -- measurement -------------------------------------------------------
    def _project(self, j: int, y: int) -> None:
        row = self.A[j].astype(bool)
        if not row.any():
            # dropping terms keeps the canonical form
            alive = self.bs[:, j] == y
            self.coeffs = np.where(alive, self.coeffs, 0.0)
            self._prune()
            return
        self._canonical = False
        const = (self.bs[:, j] ^ y).astype(np.uint8)
        p = int(np.flatnonzero(row)[-1])
        members = row.copy()
        members[p] = False
        self._subst_affine(p, members, const)
        self._drop_columns([p])
        self.bs[:, j] = y
        self.coeffs = self.coeffs / _SQRT2
        self.canonicalize()

    def _sq_norm(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def _z_norms(self, j: int) -> tuple[float, float]:
        """Squared norms of the projections of row j onto Z = 0 and Z = 1,
        read off the canonical form without projecting.

        Distinct canonical terms are orthogonal, and so are their halves
        unless the two terms share b and their e words differ by exactly
        the row A[j] (the character the outcome bit imposes on u): such a
        pair adds (-1)^(y xor b_j) Re(conj(c_t) c_t') to outcome y.  With
        a zero row the outcome is b_j in every term."""
        mags = np.abs(self.coeffs) ** 2
        bj = self.bs[:, j]
        row = self.A[j]
        if not row.any():
            return float(np.sum(mags[bj == 0])), float(np.sum(mags[bj == 1]))
        half = 0.5 * float(np.sum(mags))
        shift = 0.0
        if self.num_terms > 1:
            keys = [b.tobytes() for b in self.bs]
            index = {kb + e.tobytes(): t
                     for t, (kb, e) in enumerate(zip(keys, self.es))}
            for t, (kb, e) in enumerate(zip(keys, self.es)):
                u = index.get(kb + (e ^ row).tobytes(), -1)
                if u > t:
                    re = (self.coeffs[t].conjugate() * self.coeffs[u]).real
                    shift += -re if bj[t] else re
        return half + shift, half - shift

    def z_probabilities(self, qubit_id: int) -> tuple[float, float]:
        self.canonicalize()
        n0, n1 = self._z_norms(self._row(qubit_id))
        tot = n0 + n1
        return n0 / tot, n1 / tot

    def measure(self, qubit_id: int, rng):
        """One Born draw from the canonical form's probabilities, then the
        drawn outcome alone is projected and renormalised."""
        p0, p1 = self.z_probabilities(qubit_id)
        bit = 1 if rng.random() < p1 else 0
        prob = p1 if bit else p0
        if prob <= 1e-14:
            return bit, 0.0
        self._project(self._row(qubit_id), bit)
        self.coeffs = self.coeffs / np.sqrt(self._sq_norm())
        return bit, prob

    # -- inspection ---------------------------------------------------------
    def _amplitude_table(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Every nonzero amplitude: (keys, amps), where keys[i] packs the
        bits of basis state i on ``rows`` (in that order, most significant
        first, as ``np.packbits``) and amps[i] is its amplitude.

        Basis states come in order of first appearance over (term, u), and
        each amplitude is summed in that order starting from zero, as a
        running dictionary would sum it."""
        if self.k > 20:
            raise ValueError("dense reconstruction limited to 2^20 terms")
        k = self.k
        rows = list(rows)
        us = np.arange(1 << k, dtype=np.int64)
        ubits = (us[:, None] >> np.arange(k)[None, :]) & 1
        quad = ((ubits @ np.triu(self.Q, 1).astype(np.int64)) * ubits).sum(
            axis=1)
        ipow = np.array([1, 1j, -1, -1j], dtype=complex)
        amps = []
        for t in range(self.num_terms):
            phase = ubits @ ((self.d + 2 * self.es[t]) & 3) + 2 * quad
            amps.append(self.coeffs[t] * (2.0 ** (-k / 2)) * ipow[phase & 3])
        xs = ((ubits @ self.A[rows].T.astype(np.int64)) & 1).astype(np.uint8)
        keys = (np.packbits(xs, axis=1)[None, :, :]
                ^ np.packbits(self.bs[:, rows], axis=1)[:, None, :])
        keys = keys.reshape(self.num_terms << k, keys.shape[2])
        slot, first = _first_seen(keys)
        acc = np.zeros(len(first), dtype=complex)
        np.add.at(acc, slot, np.concatenate(amps))
        nonzero = np.abs(acc) > 1e-14
        return keys[first][nonzero], acc[nonzero]

    def sparse_amplitudes(self) -> dict[int, complex]:
        """Exact amplitudes keyed by basis index (qubit 0 most significant)."""
        keys, amps = self._amplitude_table(range(self.n))
        shift = 8 * keys.shape[1] - self.n
        return {int.from_bytes(key.tobytes(), "big") >> shift: amp
                for key, amp in zip(keys, amps)}

    def dense_vector(self) -> np.ndarray:
        vec = np.zeros(1 << self.n, dtype=complex)
        for idx, amp in self.sparse_amplitudes().items():
            vec[idx] = amp
        return vec

    def density_of(self, qubits) -> np.ndarray:
        """Reduced density matrix on the listed qubits (<= 12): the sum of
        |v><v| over the kept-qubit vectors v of each basis state of the
        other qubits, in order of first appearance."""
        keep = [self._row(q) for q in qubits]
        if len(keep) > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        r = len(keep)
        keepset = set(keep)
        rest = [q for q in range(self.n) if q not in keepset]
        keys, amps = self._amplitude_table(keep + rest)
        bits = np.unpackbits(keys, axis=1, count=self.n)
        kept = bits[:, :r].astype(np.intp) @ (1 << np.arange(r - 1, -1, -1))
        group, first = _first_seen(np.packbits(bits[:, r:], axis=1))
        order = np.argsort(group, kind="stable")
        group, kept, amps = group[order], kept[order], amps[order]
        dim = 1 << r
        rho = np.zeros((dim, dim), dtype=complex)
        flat = rho.reshape(-1)
        # |v><v| group after group, a block of groups at a time
        per = max(1, (1 << 20) // (dim * dim))
        for lo in range(0, len(first), per):
            a, b = np.searchsorted(group, [lo, lo + per])
            vecs = np.zeros((min(per, len(first) - lo), dim), dtype=complex)
            vecs[group[a:b] - lo, kept[a:b]] = amps[a:b]
            outer = vecs[:, :, None] * vecs.conj()[:, None, :]
            np.add.at(flat, np.tile(np.arange(dim * dim), len(vecs)),
                      outer.reshape(-1))
        return rho


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a uint8 array by first appearance:
    (each row's number, the index where each number first appears)."""
    if keys.shape[1] == 0:
        keys = np.zeros((len(keys), 1), dtype=np.uint8)
    rows = np.ascontiguousarray(keys).view(
        np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(first), dtype=np.intp)
    number[order] = np.arange(len(first))
    return number[inverse.ravel()], first[order]
