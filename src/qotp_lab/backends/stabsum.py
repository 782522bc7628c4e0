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

from ..paulis import PauliOperator

MAX_QUBITS = 256
MAX_TERMS = 1024

_OMEGA = np.exp(1j * np.pi / 4)
_SQRT2 = np.sqrt(2.0)


class StabilizerSum:
    kind = "sum"

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
        if n:
            self.append_qubits(n)

    # ------------------------------------------------------------------
    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    def copy(self) -> "StabilizerSum":
        s = StabilizerSum.__new__(StabilizerSum)
        s.n, s.k = self.n, self.k
        s.A = self.A.copy()
        s.Q = self.Q.copy()
        s.d = self.d.copy()
        s.bs = self.bs.copy()
        s.es = self.es.copy()
        s.coeffs = self.coeffs.copy()
        s._row_of = dict(self._row_of)
        s._free_rows = list(self._free_rows)
        s._next_id = self._next_id
        return s

    def _row(self, qubit_id: int) -> int:
        return self._row_of[qubit_id]

    def append_qubits(self, k: int) -> list[int]:
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
        """A nonzero gamma with A gamma = 0, if the columns are dependent."""
        a = self.A.copy()
        k = self.k
        comb = np.eye(k, dtype=np.uint8)  # comb[c] = expansion of column c
        pivots: list[tuple[int, int]] = []  # (row, column)
        for c in range(k):
            for pr, pc in pivots:
                if a[pr, c]:
                    a[:, c] ^= a[:, pc]
                    comb[c] ^= comb[pc]
            nz = np.flatnonzero(a[:, c])
            if len(nz) == 0:
                return comb[c]
            pivots.append((int(nz[0]), c))
        return None

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
        and merge identical terms."""
        pivots: list[tuple[int, int]] = []  # (column, pivot row)
        for c in range(self.k):
            for pc, pr in pivots:
                if self.A[pr, c]:
                    self._subst_xor(pc, c)
            rows = np.flatnonzero(self.A[:, c])
            rows = [r for r in rows if r not in [pr for _, pr in pivots]]
            if not rows:
                raise AssertionError("frame lost full column rank")
            pivots.append((c, int(rows[0])))
        for c, r in pivots:
            for c2 in range(self.k):
                if c2 != c and self.A[r, c2]:
                    self._subst_xor(c, c2)
        # b-reduction: shift terms (u -> u xor e_c) so b vanishes on pivot rows
        for c, r in pivots:
            hit = self.bs[:, r].astype(bool)
            if not hit.any():
                continue
            dc = int(self.d[c])
            ec = self.es[hit, c].copy()
            self.coeffs[hit] *= (1j ** dc) * ((-1.0) ** ec)
            if dc & 1:
                self.es[hit, c] = ec ^ 1
            self.es[hit] ^= self.Q[c][None, :]
            self.bs[hit] ^= self.A[:, c][None, :]
        self._merge()

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
        self.coeffs *= 1j ** p.phase_exp
        for jj, q in enumerate(qubits):
            xb, zb = (p.x >> jj) & 1, (p.z >> jj) & 1
            if zb:
                self.apply_gate("Z", q)
            if xb:
                self.apply_gate("X", q)

    def inject_magic(self, kind: str) -> list[int]:
        """Append a magic register; K- and H-magic are stabilizer (rank x1),
        T-magic splits each term in two."""
        if kind == "K":
            ids = self.append_qubits(1)
            self.apply_gate("H", ids[0])
            self.apply_gate("K", ids[0])
            return ids
        if kind == "H":
            ids = self.append_qubits(2)
            self.apply_gate("H", ids[0])
            self.apply_gate("CNOT", ids[0], ids[1])
            self.apply_gate("H", ids[1])
            return ids
        if kind == "T":
            if 2 * self.num_terms > MAX_TERMS:
                raise ValueError("stabilizer-sum rank budget exceeded")
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
        raise ValueError(f"unknown magic kind {kind!r}")

    # -- measurement -------------------------------------------------------
    def _project(self, j: int, y: int) -> None:
        row = self.A[j].astype(bool)
        if not row.any():
            alive = self.bs[:, j] == y
            self.coeffs = np.where(alive, self.coeffs, 0.0)
            self._prune()
            return
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

    def _outcomes(self, qubit_id: int) -> tuple[list, list[float]]:
        """Canonicalize, then project a copy onto each Z outcome: the two
        copies (None for an annihilated one) and their squared norms."""
        qubit = self._row(qubit_id)
        self.canonicalize()
        branches, norms = [], []
        for y in (0, 1):
            try:
                br = self.copy()
                br._project(qubit, y)
                branches.append(br)
                norms.append(br._sq_norm())
            except ValueError:
                branches.append(None)
                norms.append(0.0)
        return branches, norms

    def z_probabilities(self, qubit_id: int) -> tuple[float, float]:
        _, norms = self._outcomes(qubit_id)
        tot = norms[0] + norms[1]
        return norms[0] / tot, norms[1] / tot

    def measure(self, qubit_id: int, rng):
        branches, norms = self._outcomes(qubit_id)
        tot = norms[0] + norms[1]
        p0, p1 = norms[0] / tot, norms[1] / tot
        bit = 1 if rng.random() < p1 else 0
        prob = p1 if bit else p0
        if prob <= 1e-14:
            return bit, 0.0
        # continue as the drawn outcome's projected copy
        vars(self).update(vars(branches[bit]))
        self.coeffs = self.coeffs / np.sqrt(norms[bit])
        return bit, prob

    # -- inspection ---------------------------------------------------------
    def sparse_amplitudes(self) -> dict[int, complex]:
        """Exact amplitudes keyed by basis index (qubit 0 most significant)."""
        if self.k > 20:
            raise ValueError("dense reconstruction limited to 2^20 terms")
        out: dict[int, complex] = {}
        k = self.k
        us = np.arange(1 << k, dtype=np.int64)
        ubits = ((us[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
        quad = np.zeros(1 << k, dtype=np.int64)
        for m in range(k):
            for w in range(m + 1, k):
                if self.Q[m, w]:
                    quad += ubits[:, m] * ubits[:, w]
        xs = (ubits @ self.A.T.astype(np.int64)) & 1  # (2^k, n)
        ipow = np.array([1, 1j, -1, -1j], dtype=complex)
        for t in range(self.num_terms):
            phase = (ubits.astype(np.int64) @ ((self.d + 2 * self.es[t]) & 3)) \
                + 2 * quad
            amps = self.coeffs[t] * (2.0 ** (-k / 2)) * ipow[phase & 3]
            cells = xs ^ self.bs[t][None, :]
            for row, amp in zip(cells, amps):
                idx = 0
                for b in row:
                    idx = (idx << 1) | int(b)
                out[idx] = out.get(idx, 0.0) + amp
        return {i: a for i, a in out.items() if abs(a) > 1e-14}

    def dense_vector(self) -> np.ndarray:
        vec = np.zeros(1 << self.n, dtype=complex)
        for idx, amp in self.sparse_amplitudes().items():
            vec[idx] = amp
        return vec

    def density_of(self, qubits) -> np.ndarray:
        keep = [self._row(q) for q in qubits]
        if len(keep) > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        amps = self.sparse_amplitudes()
        groups: dict[int, dict[int, complex]] = {}
        keepset = set(keep)
        for idx, amp in amps.items():
            kept = 0
            rest = 0
            for pos, q in enumerate(keep):
                kept |= ((idx >> (self.n - 1 - q)) & 1) << (len(keep) - 1 - pos)
            for q in range(self.n):
                if q not in keepset:
                    rest = (rest << 1) | ((idx >> (self.n - 1 - q)) & 1)
            bucket = groups.setdefault(rest, {})
            bucket[kept] = bucket.get(kept, 0.0) + amp
        dim = 1 << len(keep)
        rho = np.zeros((dim, dim), dtype=complex)
        for sub in groups.values():
            vec = np.zeros(dim, dtype=complex)
            for kk, aa in sub.items():
                vec[kk] = aa
            rho += np.outer(vec, vec.conj())
        return rho
