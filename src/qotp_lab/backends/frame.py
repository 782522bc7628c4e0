"""Keyed runs replayed through a Pauli frame.

Keyed runs of one program differ in their Pauli keys, attacks, corrections
and drawn outcomes, and in the trap permutation pi, which relabels the
qubits of every authenticated register.  Up to that relabelling they run
one Clifford circuit.  So one run is recorded (``Recorder``, a
``TableauState`` that logs its Clifford calls) and every later run replays
it (``FrameReplay``): a frame simulation in the sense of Gidney's Stim
(arXiv:2103.02202, section 3) over an Aaronson-Gottesman tableau.

The reference re-executes the logged appends, H, K and CNOT gates,
measurements and discards once on a ``TableauState``, with no Pauli at all.
A replayed run carries one Pauli frame over the reference's qubits: its
keys, attacks, corrections, X, Y and Z gates and chosen flips all go into
it, and its state is always the frame applied to the reference's state.

A segment is a stretch of logged gates and measurements with no append or
discard in it, split before a gate on a qubit it has already measured:
one ``trap.measure_and_drop`` or one ``bell_measure``, each of which ends
in one discard of every qubit it measured.  Its gates can all act
before its measurements.  The reference keeps the segment's outcomes o
and a basis of flip directions: stabilizers P of the state before the
measurements, each of which maps the post-measurement state of o to that
of o xor (P's X bits on the measured qubits).  Which measurement of a
segment is random depends on the order the run measures in, and that order
comes from pi, so the run eliminates the basis in its own order.  A
measurement that some basis element still flips is a pivot: it draws one
``rng.integers(0, 2)``, as ``TableauState.measure`` does, and that draw is
its outcome.  Any other measurement is read from o, the frame and the flips
chosen so far.

A run must make the reference's calls with its qubits relabelled.  Calls on
disjoint qubits may come in another order, but each segment, and each
stretch between segments, is finished before the next begins.  A call that
leaves the reference raises, also past its last entry.  Once the run has
made every call, ``final_state`` hands out its state: a copy of the
reference's final ``TableauState``, its ids relabelled and the frame
applied as sign flips.
"""

from __future__ import annotations

from .tableau import TableauState

_PAULI_GATES = ("X", "Y", "Z")


class _ZeroDraw:
    """The outcome draw of the reference's random measurements: always 0."""

    @staticmethod
    def integers(lo: int, hi: int) -> int:
        return 0


def _spread(bits: int, labels) -> int:
    """The mask with bit labels[i] for every set bit i of ``bits``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << labels[low.bit_length() - 1]
        bits ^= low
    return out


class Recorder(TableauState):
    """A ``TableauState`` that logs its appends, H, K and CNOT gates,
    measurements and discards, and each register the run places
    (``relabel``), until ``finish`` returns the reference that
    ``FrameReplay`` replays."""

    def __init__(self):
        super().__init__(0)
        self._log: list | None = []
        self._placed: list = []

    def _entry(self, name: str, qubits) -> None:
        if self._log is not None:
            self._log.append((name, tuple(qubits)))

    def append_qubits(self, k: int) -> list[int]:
        ids = super().append_qubits(k)
        self._entry("append", ids)
        return ids

    def apply_gate(self, name: str, *qubits: int) -> None:
        super().apply_gate(name, *qubits)
        if name not in _PAULI_GATES:
            self._entry(name, qubits)

    def measure(self, qubit: int, rng):
        out = super().measure(qubit, rng)
        self._entry("measure", (qubit,))
        return out

    def discard(self, qubits) -> None:
        qubits = list(qubits)
        super().discard(qubits)
        self._entry("discard", qubits)

    def relabel(self, ids, pi) -> None:
        """The register ``ids`` (position order) placed by the permutation
        ``pi``: its ids in role order, kept for the replays."""
        self._placed.append(tuple(ids[p] for p in pi))

    def finish(self) -> "_Reference":
        log, self._log = self._log, None
        return _Reference(log, self._placed)


class _Reference:
    """A recorded log, re-executed once with no Pauli and read into what a
    replay checks and reads.

    Entry e of the log is ``names[e]`` on the reference ids ``qubits[e]``;
    ``names`` ends in a None that no call matches.  ``start[r]`` is the
    append of id r, ``born[r]`` the entry after it, and ``after[e]`` the
    entry after e on its qubit: an int, a (control, target) pair for a
    CNOT, or a dict by id for an append or discard.  ``placed`` holds each
    placed register's ids in role order, and sorted.
    ``regions`` lists (end, segment) in log order, where segment is None or
    (outcome mask, {pivot id: (x mask, z mask)}), the basis reduced so that
    each pivot id is set in its own element only.  ``final`` is the state
    after the last entry."""

    def __init__(self, log: list, placed: list):
        size = self.size = len(log)
        self.placed = [(new, sorted(new)) for new in placed]
        self.names = [name for name, _ in log] + [None]
        self.qubits = [qubits for _, qubits in log]
        self.after: list = [None] * size
        last: dict = {}
        for e in range(size - 1, -1, -1):
            name, qubits = log[e]
            nxt = [last.get(r, size) for r in qubits]
            if name in ("append", "discard"):
                self.after[e] = dict(zip(qubits, nxt))
            else:
                self.after[e] = nxt[0] if len(nxt) == 1 else tuple(nxt)
            last.update(dict.fromkeys(qubits, e))
        self.start = [last[r] for r in range(len(last))]
        self.born = [self.after[e][r] for r, e in enumerate(self.start)]
        # pieces: stretches of gates and measurements, split before a gate
        # on a qubit the piece has measured; a piece that measures is a
        # segment
        segments, piece = [], None
        for e, (name, qubits) in enumerate(log):
            if name in ("append", "discard"):
                piece = None
                continue
            if piece is None or (name != "measure"
                                 and piece[2].intersection(qubits)):
                piece = [e, e, set()]
                segments.append(piece)
            piece[1] = e + 1
            if name == "measure":
                piece[2].add(qubits[0])
        segments = [(lo, hi) for lo, hi, measured in segments if measured]
        state = TableauState(0)
        self.regions, e = [], 0
        for lo, hi in segments + [(size, size)]:
            for e in range(e, lo):
                name, qubits = log[e]
                if name == "append":
                    state.append_qubits(len(qubits))
                elif name == "discard":
                    state.discard(qubits)
                else:
                    state.apply_gate(name, *qubits)
            if lo > (self.regions[-1][0] if self.regions else 0):
                self.regions.append((lo, None))
            if hi > lo:
                self.regions.append((hi, self._segment(state, log[lo:hi])))
            e = hi
        self.final = state

    @staticmethod
    def _segment(state: TableauState, entries: list) -> tuple:
        """Run one segment on ``state``, gates first, each random outcome
        0; its outcome mask and reduced flip basis."""
        for name, qubits in entries:
            if name != "measure":
                state.apply_gate(name, *qubits)
        cols = state._col_of
        where = {c: r for r, c in cols.items()}

        def by_id(mask: int) -> int:
            # only live columns: a free column is |0>, so a stabilizer has
            # no X there and its Z there is trivial
            return sum(1 << r for c, r in where.items() if mask >> c & 1)

        basis, outcome = [], 0
        for name, qubits in entries:
            if name != "measure":
                continue
            r = qubits[0]
            stab = state.xcols[cols[r]] >> state._cap
            if stab:
                x, z, _ = state.stab_row((stab & -stab).bit_length() - 1)
                basis.append([r, by_id(x), by_id(z)])
            bit, _ = state.measure(r, _ZeroDraw)
            outcome |= bit << r
        # each element commutes with the Z of every qubit measured before
        # its own, so clearing later pivots from earlier elements, last
        # first, leaves each pivot set in its own element only
        for i in range(len(basis) - 1, 0, -1):
            r, px, pz = basis[i]
            for v in basis[:i]:
                if v[1] >> r & 1:
                    v[1] ^= px
                    v[2] ^= pz
        return outcome, {r: (px, pz) for r, px, pz in basis}


class FrameReplay:
    """A run replayed against a reference (``Recorder.finish``), with
    ``TableauState``'s call surface and the same outcomes, probabilities
    and draws; ``final_state`` is the ``TableauState`` the run ends in.

    ``_sig`` maps run ids to reference ids, ``_nxt[r]`` is reference id
    r's next entry, and ``_fx`` and ``_fz`` are the frame's X and Z bits by
    reference id.  ``_hi`` ends the current region, which is done when no
    qubit's next entry lies in it.  In a segment, ``_vecs`` is what is left
    of its basis after the eliminations so far, and ``_cx`` and ``_cz``
    the product of the flips chosen, which joins the frame when the
    segment ends."""

    def __init__(self, ref: _Reference):
        self._ref = ref
        self._names, self._qubits, self._after = ref.names, ref.qubits, \
            ref.after
        self._sig: dict[int, int] = {}
        self._nxt = list(ref.start)
        self._fx = self._fz = 0
        self._region = -1
        self._hi = 0
        self._vecs = None
        self._placed = 0
        self._next_id = 0
        if ref.regions:
            self._next_region()

    # -- regions and the final state -------------------------------------------
    def _close_segment(self) -> None:
        if self._vecs is not None:
            self._fx ^= self._cx
            self._fz ^= self._cz
            self._vecs = None

    def _next_region(self) -> None:
        self._close_segment()
        self._region += 1
        self._hi, segment = self._ref.regions[self._region]
        if segment is not None:
            self._out, basis = segment
            self._vecs = dict(basis)
            self._cx = self._cz = 0

    def _slow(self, method, *args):
        """A call that is not the next entry of its qubits in the current
        region: it opens the next region, or it leaves the reference and
        raises."""
        if self._hi < self._ref.size and min(self._nxt) >= self._hi:
            self._next_region()
            return method(self, *args)
        raise RuntimeError("the run leaves its reference at "
                           + method.__name__)

    def final_state(self) -> TableauState:
        """The state the run ends in, once it has made every call of its
        reference: a copy of the reference's final state with its columns
        relabelled and the frame applied."""
        if min(self._nxt, default=0) < self._ref.size:
            raise RuntimeError("the run has not reached its reference's end")
        self._close_segment()
        real = self._ref.final.copy()
        cols = real._col_of
        real._col_of = {u: cols[r] for u, r in self._sig.items()}
        real._next_id = self._next_id
        for u, col in real._col_of.items():
            r = self._sig[u]
            if self._fx >> r & 1:
                real.signs ^= real.zcols[col]
            if self._fz >> r & 1:
                real.signs ^= real.xcols[col]
        return real

    def _ref_ids(self, qubits) -> list[int]:
        sig = self._sig
        try:
            return [sig[u] for u in qubits]
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None

    # -- the call surface ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        nxt, first = self._nxt, self._next_id
        e = nxt[first] if first < len(nxt) else self._ref.size
        if (self._names[e] != "append" or e >= self._hi
                or self._qubits[e] != tuple(range(first, first + k))):
            return self._slow(FrameReplay.append_qubits, k)
        ids = range(first, first + k)
        self._sig.update(zip(ids, ids))
        nxt[first:first + k] = self._ref.born[first:first + k]
        self._next_id += k
        return list(ids)

    def relabel(self, ids, pi) -> None:
        """The run placed the register ``ids`` (position order) by the
        permutation ``pi``: its role-r qubit takes the label of the
        reference's role-r qubit of the same placing.  Only qubits that no
        call has touched since their append change label."""
        ref, nxt, born = self._ref, self._nxt, self._ref.born
        roles = [ids[p] for p in pi]
        old = self._ref_ids(roles)
        new, ordered = ref.placed[self._placed] \
            if self._placed < len(ref.placed) else ((), [])
        touched = self._fx | self._fz
        if sorted(old) != ordered or any(
                a != b and (nxt[a] != born[a] or touched >> a & 1)
                for a, b in zip(old, new)):
            raise RuntimeError("the run leaves its reference mid-run: a "
                               "register placed unlike the reference's")
        self._placed += 1
        self._sig.update(zip(roles, new))

    def apply_gate(self, name: str, *qubits: int) -> None:
        nxt = self._nxt
        try:
            if len(qubits) == 1:
                r = self._sig[qubits[0]]
                e = nxt[r]
                if self._names[e] != name or e >= self._hi:
                    return self._other_gate(name, qubits)
                nxt[r] = self._after[e]
                b = 1 << r
                if name == "H":
                    if (self._fx ^ self._fz) & b:
                        self._fx ^= b
                        self._fz ^= b
                elif self._fx & b:  # K: X -> Y
                    self._fz ^= b
                return
            c, t = qubits
            c, t = self._sig[c], self._sig[t]
        except (KeyError, ValueError):
            return self._other_gate(name, qubits)
        e = nxt[c]
        if (self._names[e] != name or e >= self._hi or nxt[t] != e
                or self._qubits[e] != (c, t)):
            return self._other_gate(name, qubits)
        nxt[c], nxt[t] = self._after[e]
        if self._fx >> c & 1:
            self._fx ^= 1 << t
        if self._fz >> t & 1:
            self._fz ^= 1 << c

    def _other_gate(self, name: str, qubits) -> None:
        if name in _PAULI_GATES and len(qubits) == 1:
            b = 1 << self._ref_ids(qubits)[0]
            if name != "Z":
                self._fx ^= b
            if name != "X":
                self._fz ^= b
            return
        return self._slow(FrameReplay.apply_gate, name, *qubits)

    def apply_pauli(self, p, qubits) -> None:
        labels = self._ref_ids(qubits)
        width = (1 << len(labels)) - 1
        self._fx ^= _spread(p.x & width, labels)
        self._fz ^= _spread(p.z & width, labels)

    def measure(self, qubit: int, rng):
        """Measure in the computational basis; returns (bit, probability),
        drawing ``rng.integers(0, 2)`` only for a random outcome."""
        r = self._sig.get(qubit)
        e = self._nxt[r] if r is not None else self._ref.size
        if self._names[e] != "measure" or e >= self._hi:
            return self._slow(FrameReplay.measure, qubit, rng)
        self._nxt[r] = self._after[e]
        b = 1 << r
        vecs = self._vecs
        v = vecs.pop(r, None)
        if v is None:
            hits = [p for p, (px, _) in vecs.items() if px & b]
            if not hits:
                return (self._out ^ self._cx ^ self._fx) >> r & 1, 1.0
            v = vecs.pop(hits[0])
            for p in hits[1:]:
                px, pz = vecs[p]
                vecs[p] = (px ^ v[0], pz ^ v[1])
        bit = int(rng.integers(0, 2))
        if bit != (self._out ^ self._cx ^ self._fx) >> r & 1:
            self._cx ^= v[0]
            self._cz ^= v[1]
        return bit, 0.5

    def discard(self, qubits) -> None:
        nxt, sig = self._nxt, self._sig
        qubits = list(qubits)
        labels = [sig.get(u, -1) for u in qubits]
        e = nxt[labels[0]] if labels and labels[0] >= 0 else self._ref.size
        if (self._names[e] != "discard" or e >= self._hi
                or sorted(labels) != sorted(self._qubits[e])
                or any(nxt[r] != e for r in labels)):
            return self._slow(FrameReplay.discard, qubits)
        after = self._after[e]
        for u, r in zip(qubits, labels):
            nxt[r] = after[r]
            del sig[u]
        mask = ~_spread((1 << len(labels)) - 1, labels)
        self._fx &= mask
        self._fz &= mask

    # -- reads ---------------------------------------------------------------------
    def density_of(self, qubits):
        return self.final_state().density_of(qubits)
