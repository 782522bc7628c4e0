"""Stabilizer-sum backend: Pauli offsets of one stabilizer state.

The state is

    |psi> = sum_t  c_t * X^{x_t} Z^{z_t} |S>

over one stabilizer state |S>, a ``TableauState`` that the sum owns: each
term is an explicit Pauli offset (x and z masks over the tableau's
columns) and one complex amplitude.  This is the sum-of-stabilizer-states
picture of Bravyi et al. (arXiv:1808.00128) on an Aaronson-Gottesman
tableau (arXiv:quant-ph/0406196).  A tableau fixes |S> only up to a global
phase, so every update defines the new |S> as a fixed operator applied to
the old one; the terms' relative phases, all that a read sees, stay exact.

Two offsets that differ by an element of the stabilizer group, up to a
phase, give one state up to that phase, and the sum never holds two such
terms: distinct terms are orthogonal, so norms and outcome probabilities
are sums of |c_t|^2 plus the pairs that a measurement makes interfere.  A
term's key, the stabilizer rows its offset anticommutes with, names its
coset of the group.

- A Clifford gate is one tableau update, and each offset is conjugated by
  it: a few mask operations and at most a phase per term.
- A Pauli flips tableau signs, and the terms whose offsets anticommute
  with it change sign.
- T magic appends |+> to the tableau and splits each term into itself and
  itself times Z on the new qubit, with amplitudes alpha and beta.
- A Z measurement that |S> holds deterministically reads each term's
  outcome off its offset, and drops the other outcome's terms.
- Otherwise the tableau measures the drawn outcome, and each offset that
  anticommutes with Z takes in the stabilizer that anticommuted with Z.
  Two terms whose keys differ by Z's own key then become one: those pairs
  are where the outcomes interfere, and they give p0 and p1 before the
  one Born draw.
- ``density_of`` sums Pauli expectations; each pair of terms meets the
  kept Paulis on one coset of the group elements supported there.
"""

from __future__ import annotations

import numpy as np

from ..gf2 import eliminate, ones, solve
from ..paulis import PauliOperator
from .blocks import BlockCalls
from .tableau import TableauState

MAX_QUBITS = 256
MAX_TERMS = 1024

_ALPHA = (1 + np.exp(1j * np.pi / 4)) / 2
_BETA = (1 - np.exp(1j * np.pi / 4)) / 2
_IPOW = (1, 1j, -1, -1j)


class StabilizerSum(BlockCalls):
    def __init__(self, n: int = 0):
        self._tab = TableauState(0)
        self._xs, self._zs = [0], [0]  # each term's offset X^x Z^z
        self._cs = [1 + 0j]
        if n:
            self.append_qubits(n)

    @property
    def n(self) -> int:
        return self._tab.n

    @property
    def num_terms(self) -> int:
        return len(self._cs)

    def append_qubits(self, k: int) -> list[int]:
        if self._tab.n + k > MAX_QUBITS:
            raise ValueError("stabilizer-sum backend capped at 256 qubits")
        return self._tab.append_qubits(k)

    def discard(self, qubits) -> None:
        """Free collapsed qubits: |S> holds each one's Z and every offset
        has the same X there, so the offsets drop it, a Z there becoming
        that value's sign, and the tableau frees its column."""
        tab = self._tab
        qubits = list(qubits)
        xs, zs = self._xs, self._zs
        clear = flip = 0
        for qid in qubits:
            col = tab._col(qid)
            bit = 1 << col
            if tab.xcols[col] >> tab._cap or \
                    any((x ^ xs[0]) & bit for x in xs):
                raise ValueError("discard requires a collapsed qubit")
            if any(z & bit for z in zs) and tab._deterministic_value(col):
                flip |= bit
            clear |= bit
        tab.discard(qubits)
        if flip:
            self._cs = [-c if (z & flip).bit_count() & 1 else c
                        for z, c in zip(zs, self._cs)]
        self._xs = [x & ~clear for x in xs]
        self._zs = [z & ~clear for z in zs]

    # -- gates -----------------------------------------------------------
    def apply_gate(self, name: str, *qubit_ids: int) -> None:
        tab = self._tab
        tab.apply_gate(name, *qubit_ids)
        xs, zs, cs = self._xs, self._zs, self._cs
        bit = 1 << tab._col_of[qubit_ids[0]]
        if name == "CNOT":
            tbit = 1 << tab._col_of[qubit_ids[1]]
            for t, (x, z) in enumerate(zip(xs, zs)):
                if x & bit:
                    xs[t] = x ^ tbit
                if z & tbit:
                    zs[t] = z ^ bit
        elif name == "H":  # H X^a Z^b H = (-1)^{ab} X^b Z^a
            for t, (x, z) in enumerate(zip(xs, zs)):
                if x & bit and z & bit:
                    cs[t] = -cs[t]
                elif (x | z) & bit:
                    xs[t], zs[t] = x ^ bit, z ^ bit
        elif name == "K":  # K X Z^b K^dagger = i X Z^{1+b}
            for t, x in enumerate(xs):
                if x & bit:
                    zs[t] ^= bit
                    cs[t] *= 1j
        else:
            self._sign_flips(bit if name != "Z" else 0,
                             bit if name != "X" else 0)

    def _sign_flips(self, px: int, pz: int) -> None:
        """The tableau took the Pauli X^px Z^pz into its signs: a term
        whose offset anticommutes with it changes sign."""
        self._cs = [-c if ((x & pz).bit_count() + (z & px).bit_count()) & 1
                    else c for x, z, c in zip(self._xs, self._zs, self._cs)]

    def apply_pauli(self, p: PauliOperator, qubits) -> None:
        tab = self._tab
        tab.apply_pauli(p, qubits)
        px = pz = 0
        for i, q in enumerate(qubits):
            col = tab._col_of[q]
            px |= (p.x >> i & 1) << col
            pz |= (p.z >> i & 1) << col
        self._sign_flips(px, pz)

    def inject_magic(self) -> list[int]:
        """Append one qubit in T magic |0> + e^{i pi/4}|1> (normalized),
        alpha |+> + beta |->, which splits each term in two; K and H magic
        are made from gates."""
        if 2 * self.num_terms > MAX_TERMS:
            raise ValueError("stabilizer-sum rank budget exceeded")
        ids = self.append_qubits(1)
        self._tab.apply_gate("H", ids[0])
        bit = 1 << self._tab._col_of[ids[0]]
        self._xs = self._xs + self._xs
        self._zs = self._zs + [z | bit for z in self._zs]
        self._cs = [c * _ALPHA for c in self._cs] + \
            [c * _BETA for c in self._cs]
        return ids

    # -- measurement -------------------------------------------------------
    def _z_split(self, q: int) -> tuple:
        """Z at column q read without a change: its outcome probabilities
        (p0, p1), from the squared norms of its two projections, |S>'s
        value of Z (None when |S> holds it at random) and the pairs
        (a, b, w) of terms that interfere, with Z P_a |S> = w P_b |S>.

        A pair's keys differ by Z's own key, and w is one group read:
        P_b^dagger Z P_a is in the group.  Z's expectation is then
        sum 2 Re(conj(c_b) c_a w) over the pairs."""
        tab = self._tab
        xs, zs, cs = self._xs, self._zs, self._cs
        norms = [c.real * c.real + c.imag * c.imag for c in cs]
        bit = 1 << q
        anti = tab.xcols[q] >> tab._cap
        if not anti:
            s = tab._deterministic_value(q)
            n1 = sum(n for n, x in zip(norms, xs) if (x >> q & 1) ^ s)
            n0 = sum(n for n, x in zip(norms, xs) if not (x >> q & 1) ^ s)
            return n0 / (n0 + n1), n1 / (n0 + n1), s, ()
        half = 0.5 * sum(norms)
        shift = 0.0
        pairs = []
        if len(cs) > 1:
            cap, seen = tab._cap, {}
            for b, (x, z) in enumerate(zip(xs, zs)):
                key = tab._flips(x, z) >> cap
                a = seen.get(key ^ anti)
                if a is not None:
                    xa, za = xs[a], zs[a]
                    # P_b^dagger Z P_a = (-1)^{x.z + (z ^ Z).xa}
                    #   X^{x ^ xa} Z^{z ^ Z ^ za}
                    e = tab._group_phase(x ^ xa, z ^ bit ^ za) + 2 * (
                        (x & z).bit_count() + ((z ^ bit) & xa).bit_count())
                    w = _IPOW[e & 3]
                    pairs.append((a, b, w))
                    shift += (cs[b].conjugate() * cs[a] * w).real
                seen[key] = b
        n0, n1 = half + shift, half - shift
        return n0 / (n0 + n1), n1 / (n0 + n1), None, pairs

    def z_probabilities(self, qubit_id: int) -> tuple[float, float]:
        return self._z_split(self._tab._col(qubit_id))[:2]

    def measure(self, qubit_id: int, rng):
        """One Born draw, ``rng.random() < p1``, from the probabilities
        read once; then the drawn outcome alone is projected and
        renormalised."""
        tab = self._tab
        q = tab._col(qubit_id)
        p0, p1, s, pairs = self._z_split(q)
        y = 1 if rng.random() < p1 else 0
        prob = p1 if y else p0
        if prob <= 1e-14:
            return y, 0.0
        xs, zs, cs = self._xs, self._zs, self._cs
        bit = 1 << q
        if s is not None:  # the other outcome's terms go
            kept = [t for t, x in enumerate(xs) if (x >> q & 1) ^ s == y]
            if len(kept) == len(xs):
                return y, prob
        else:
            # Pi_y P_b |S> = (-1)^y conj(w) Pi_y P_a |S>
            for a, b, w in pairs:
                cs[a] += (-w if y else w).conjugate() * cs[b]
                cs[b] = 0j
            # Pi_y P |S> is P |S'> (over sqrt 2) where P commutes with Z,
            # else P g |S'>, for the old stabilizer g = i^e X^gx Z^gz
            gx, gz, gs = tab._collapse(q, y)
            e = 2 * gs + (gx & gz).bit_count()
            for t, (x, z) in enumerate(zip(xs, zs)):
                if x & bit:
                    xs[t], zs[t] = x ^ gx, z ^ gz
                    cs[t] *= _IPOW[e + 2 * (z & gx).bit_count() & 3]
            if not pairs:
                return y, prob
            floor = max(max(map(abs, cs)) * 1e-13, 1e-300)
            kept = [t for t, c in enumerate(cs) if abs(c) > floor]
        scale = 1 / np.sqrt(sum(abs(cs[t]) ** 2 for t in kept))
        self._xs = [xs[t] for t in kept]
        self._zs = [zs[t] for t in kept]
        self._cs = [cs[t] * scale for t in kept]
        return y, prob

    # -- inspection ---------------------------------------------------------
    def density_of(self, qubits) -> np.ndarray:
        """Reduced density matrix on the listed qubits (<= 12), the first
        listed most significant: rho = 2^-m sum_W conj(<W>) W over the
        kept Paulis W = X^x Z^z.

        <W> = sum_{a,b} conj(c_b) c_a <S| P_b^dagger W P_a |S>, and a term
        of it is nonzero only when P_b^dagger W P_a is in the group up to a
        phase: W's key is then the XOR of the two terms' keys.  Those W
        are one coset of the group elements supported on the kept qubits,
        so each pair solves for one W and reads its phase once, and the
        coset's other members follow from the group elements' phases."""
        tab = self._tab
        keep = [tab._col(q) for q in qubits]
        m = len(keep)
        if m > 12:
            raise ValueError("dense reduction limited to 12 qubits")
        cap = tab._cap

        def paulis(w: int) -> tuple[int, int]:
            """The column masks of a kept Pauli: bit i of w is X on
            keep[i], bit m + i is Z on keep[i]."""
            x = z = 0
            for u in ones(w):
                if u < m:
                    x |= 1 << keep[u]
                else:
                    z |= 1 << keep[u - m]
            return x, z

        pivots, rels = eliminate([tab.zcols[c] >> cap for c in keep]
                                 + [tab.xcols[c] >> cap for c in keep])
        # the group elements on the kept qubits: (w, x, z, e) with
        # X^x Z^z |S> = i^e |S>
        group = [(0, 0, 0, 0)]
        for r in rels:
            x, z = paulis(r)
            e = tab._group_phase(x, z)
            group += [(w ^ r, gx ^ x, gz ^ z,
                       ge + e + 2 * (gz & x).bit_count())
                      for w, gx, gz, ge in group]
        keys = [tab._flips(x, z) >> cap for x, z in zip(self._xs, self._zs)]
        terms = list(zip(self._xs, self._zs, self._cs, keys))
        expect: dict[int, complex] = {}  # w -> <W>
        for xa, za, ca, ka in terms:
            for xb, zb, cb, kb in terms:
                w0 = solve(pivots, ka ^ kb)
                if w0 is None:
                    continue
                wx, wz = paulis(w0)
                # P_b^dagger W0 P_a = (-1)^{xb.zb + zb.wx + (zb ^ wz).xa}
                #   X^{xb ^ wx ^ xa} Z^{zb ^ wz ^ za}
                e = tab._group_phase(xb ^ wx ^ xa, zb ^ wz ^ za) + 2 * (
                    (xb & zb).bit_count() + (zb & wx).bit_count()
                    + ((zb ^ wz) & xa).bit_count())
                v0 = cb.conjugate() * ca
                # W0 R = (-1)^{wz.rx} X^{wx ^ rx} Z^{wz ^ rz}, and R moves
                # past P_a with the sign of their commutator
                for w, rx, rz, re in group:
                    f = e + re + 2 * ((wz & rx).bit_count()
                                      + (rx & za).bit_count()
                                      + (rz & xa).bit_count())
                    expect[w0 ^ w] = expect.get(w0 ^ w, 0) + v0 * _IPOW[f & 3]
        dim = 1 << m
        rho = np.zeros((dim, dim), dtype=complex)
        idx = np.arange(dim)
        for w, value in expect.items():
            x = z = 0
            for i in range(m):
                x |= (w >> i & 1) << (m - 1 - i)
                z |= (w >> (m + i) & 1) << (m - 1 - i)
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
            rho[idx ^ x, idx] += value.conjugate() / dim * signs
        return rho
