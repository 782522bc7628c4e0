"""Keyed runs replayed through a Pauli frame.

Keyed runs of one program differ in their Pauli keys, attacks, corrections
and drawn outcomes, and in the trap permutation pi, which relabels the
qubits of every authenticated register.  Up to that relabelling they run
one Clifford circuit.  So one run is recorded (``Recorder``, a
``TableauState`` that logs its Clifford calls) and every later run replays
it (``FrameReplay``): a frame simulation in the sense of Gidney's Stim
(arXiv:2103.02202, section 3) over an Aaronson-Gottesman tableau.

A run reaches its state as appends, register placings (``relabel``) and
block calls: gate lists (a gate outside a list is a list of one), Bell
measurements and register readouts, the last two measuring blocks that end
by dropping every qubit they measured.  The reference re-executes the log
once on a ``TableauState``, with no Pauli at all.  A replayed run carries
one Pauli frame over the reference's qubits: its keys, attacks,
corrections, X, Y and Z gates and chosen flips all go into it, and its
state is always the frame applied to the reference's state.  For each
block the reference keeps how it moves the X and Z of every qubit it
touches, so a replayed block visits only the frame bits it moves.

A measuring block's gates can all act before its measurements.  The
reference keeps the block's outcomes o and a basis of flip directions:
stabilizers P of the state before the measurements, each of which maps
the post-measurement state of o to that of o xor (P's X bits on the
measured qubits).  Which measurement of a block is random depends on the
order the run measures in, and that order comes from pi, so the run
eliminates the basis in its own order.  A measurement that some basis
element still flips is a pivot, and its outcome is a fresh uniform bit.
Which measurements are pivots never depends on a drawn bit, and a block
has one pivot per basis element, so the block draws them all with one
``rng.integers(0, 2, size=len(basis))``: the bits and the generator
position of one ``rng.integers(0, 2)`` per pivot, which is what
``TableauState.measure`` draws.  Any other measurement is read from o,
the frame and the flips chosen so far.

A run must make the reference's calls in order, each checked by one
comparison of its relabelled qubits with the log; only the order of the
qubits of a placing, of a measuring block or of one gate on each of many
qubits is free (so a transversal CNOT comes in role order).  A call that
leaves the reference raises, also past its last entry.  Once the run has
made every call, ``final_state`` hands out its state: a copy of the
reference's final ``TableauState``, its ids relabelled and the frame
applied as sign flips.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .tableau import TableauState

_PAULI_GATES = ("X", "Y", "Z")
_NAME, _QUBITS = itemgetter(0), itemgetter(slice(1, None))


def _spread(bits: int, labels) -> int:
    """The mask with bit labels[i] for every set bit i of ``bits``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << labels[low.bit_length() - 1]
        bits ^= low
    return out


def _mask(ids) -> int:
    return sum(map((1).__lshift__, ids))


def _gate_key(gates, labels) -> tuple:
    """A gate list's names and its qubits, each of them ``labels``'d; the
    qubits sorted when one single-qubit gate acts on each, in any order."""
    names = tuple(map(_NAME, gates))
    qubits = labels(chain.from_iterable(map(_QUBITS, gates)))
    if len(qubits) == len(names) > 1 and len(set(names)) == 1:
        return names, tuple(sorted(qubits))
    return names, qubits


class Recorder(TableauState):
    """A ``TableauState`` that logs its appends, register placings
    (``relabel``) and block calls, until ``finish`` returns the reference
    that ``FrameReplay`` replays.  A gate outside a gate list is logged as
    a list of one, unless it is a Pauli."""

    def __init__(self):
        super().__init__(0)
        self._log: list | None = []
        self._inner = False

    def _entry(self, kind: str, key: tuple) -> None:
        if self._log is not None:
            self._log.append((kind, key))

    def _block(self, kind: str, key: tuple, call, *args):
        """``call(*args)``, the block's unlogged calls; then its entry."""
        self._inner = True
        try:
            out = call(*args)
        finally:
            self._inner = False
        self._entry(kind, key)
        return out

    def append_qubits(self, k: int) -> list[int]:
        ids = super().append_qubits(k)
        self._entry("append", tuple(ids))
        return ids

    def relabel(self, ids, pi) -> None:
        """The register ``ids`` (position order) placed by the permutation
        ``pi``: its ids in role order, kept for the replays."""
        self._entry("relabel", tuple(ids[p] for p in pi))

    def apply_gate(self, name: str, *qubits: int) -> None:
        if self._inner or name in _PAULI_GATES:
            super().apply_gate(name, *qubits)
        else:
            self.apply_gates([(name, *qubits)])

    def apply_gates(self, gates) -> None:
        gates = tuple(gates)
        self._block("gates", gates, super().apply_gates, gates)

    def bell_measure(self, pairs, rng, sink=None) -> list[int]:
        pairs = tuple(pairs)  # a lazy pair's own calls come first
        return self._block("bell", pairs, super().bell_measure, pairs, rng,
                           sink)

    def measure_and_drop(self, ids, rng, sink=None) -> list[int]:
        ids = tuple(ids)
        return self._block("drop", ids, super().measure_and_drop, ids, rng,
                           sink)

    def finish(self) -> "_Reference":
        log, self._log = self._log, None
        return _Reference(log)


class _Reference:
    """A recorded log, re-executed once with no Pauli and read into what a
    replay checks and applies.

    Entry e is a call ``kinds[e]`` whose relabelled qubits must equal
    ``keys[e]``: a gate list's ``_gate_key``, or the sorted ids (pairs) of
    an append, a placing or a measuring block.
    ``steps[e]`` is what the replay applies: for a placing, the ids in role
    order and the masks of those that a call has touched since their append
    and of the others; for a gate list, its ``_images``; for a measuring
    block, its gates' ``_images`` (or None), its outcome mask, reduced
    flip basis {pivot id: (x mask, z mask)} and the mask of the ids that
    basis flips, and the mask of the ids it keeps.  ``final`` is the state
    after the last entry."""

    def __init__(self, log: list):
        state = TableauState(0)
        self.kinds, self.keys, self.steps = [], [], []
        fresh = 0
        for kind, key in log:
            flat = [r for g in key for r in g[1:]] if kind == "gates" else \
                [r for pair in key for r in pair] if kind == "bell" else key
            step = None
            if kind == "append":
                state.append_qubits(len(key))
                fresh |= _mask(key)
            elif kind == "relabel":
                step = (key, _mask(key) & ~fresh, _mask(key) & fresh)
            else:
                gates = key if kind == "gates" else [
                    g for d, q in key for g in (("CNOT", d, q), ("H", d))
                ] if kind == "bell" else ()
                step = self._images(gates) if gates else None
                for g in gates:
                    if g[0] not in _PAULI_GATES:
                        state.apply_gate(*g)
                fresh &= ~_mask(flat)
                if kind != "gates":
                    step = (step, *self._segment(state, flat), ~_mask(flat))
                    state.discard(flat)
            self.kinds.append(kind)
            self.keys.append(_gate_key(key, tuple) if kind == "gates"
                             else tuple(sorted(key)))
            self.steps.append(step)
        self.size = len(self.kinds)
        self.final = state

    @staticmethod
    def _images(gates) -> tuple:
        """How the gate list ``gates`` moves a frame: (the ids whose X it
        changes, those whose Z it changes, {id r: (X_r's change, Z_r's)},
        its own Paulis), each change an (x mask, z mask) pair to XOR in.
        Bit i of ``xs[r]`` (``zs[r]``) is the X (Z) at r of the image of X
        of the i-th id, of its Z at m + i, and of the Paulis at 2m."""
        qubits = sorted({r for g in gates for r in g[1:]})
        m = len(qubits)
        xs = {r: 1 << i for i, r in enumerate(qubits)}
        zs = {r: 1 << (m + i) for i, r in enumerate(qubits)}
        for name, a, *b in gates:
            if name == "CNOT":
                xs[b[0]] ^= xs[a]
                zs[a] ^= zs[b[0]]
            elif name == "H":
                xs[a], zs[a] = zs[a], xs[a]
            elif name == "K":  # X -> Y
                zs[a] ^= xs[a]
            else:
                xs[a] ^= (name != "Z") << 2 * m
                zs[a] ^= (name != "X") << 2 * m

        def image(i: int, x: int = 0, z: int = 0) -> tuple[int, int]:
            return (x ^ sum(1 << r for r in qubits if xs[r] >> i & 1),
                    z ^ sum(1 << r for r in qubits if zs[r] >> i & 1))

        moves = {r: (image(i, 1 << r), image(m + i, 0, 1 << r))
                 for i, r in enumerate(qubits)}
        return (_mask(r for r, (dx, _) in moves.items() if any(dx)),
                _mask(r for r, (_, dz) in moves.items() if any(dz)),
                moves, image(2 * m))

    @staticmethod
    def _segment(state: TableauState, measured: list) -> tuple:
        """Measure ``measured`` on ``state`` in order, each random outcome
        0; the outcome mask, the reduced flip basis and the mask of the ids
        it flips."""
        cols = state._col_of
        where = {c: r for r, c in cols.items()}

        def by_id(mask: int) -> int:
            # only live columns: a free column is |0>, so a stabilizer has
            # no X there and its Z there is trivial
            return sum(1 << r for c, r in where.items() if mask >> c & 1)

        basis, outcome = [], 0
        for r in measured:
            col = cols[r]
            if state.xcols[col] >> state._cap:  # random: collapse it to 0
                x, z, _ = state._collapse(col, 0)
                basis.append([r, by_id(x), by_id(z)])
            else:
                outcome |= state._deterministic_value(col) << r
        # each element commutes with the Z of every qubit measured before
        # its own, so clearing later pivots from earlier elements, last
        # first, leaves each pivot set in its own element only
        for i in range(len(basis) - 1, 0, -1):
            r, px, pz = basis[i]
            for v in basis[:i]:
                if v[1] >> r & 1:
                    v[1] ^= px
                    v[2] ^= pz
        support = 0
        for _, px, _ in basis:
            support |= px
        return outcome, {r: (px, pz) for r, px, pz in basis}, support


class FrameReplay:
    """A run replayed against a reference (``Recorder.finish``), with the
    run path's calls of ``TableauState`` and the same outcomes,
    probabilities and draws; ``final_state`` is the ``TableauState`` the
    run ends in.

    ``_sig`` maps run ids to reference ids, ``_e`` is the next entry of
    the reference, and ``_fx`` and ``_fz`` are the frame's X and Z bits by
    reference id."""

    def __init__(self, ref: _Reference):
        self._ref = ref
        self._e = 0
        self._sig: dict[int, int] = {}
        self._fx = self._fz = 0
        self._next_id = 0

    def _take(self, kind: str, key: tuple):
        """The step of the next entry, which must be the call ``kind`` with
        the key ``key``; else the run leaves its reference."""
        e, ref = self._e, self._ref
        if e < ref.size and ref.kinds[e] == kind and ref.keys[e] == key:
            self._e = e + 1
            return ref.steps[e]
        raise RuntimeError(f"the run leaves its reference at {kind}")

    def _push(self, images: tuple) -> None:
        """Carry the frame through a gate list with these ``_images``."""
        movx, movz, moves, (fx, fz) = images
        fx ^= self._fx
        fz ^= self._fz
        for bits, which in ((self._fx & movx, 0), (self._fz & movz, 1)):
            while bits:
                low = bits & -bits
                dx, dz = moves[low.bit_length() - 1][which]
                fx ^= dx
                fz ^= dz
                bits ^= low
        self._fx, self._fz = fx, fz

    def final_state(self) -> TableauState:
        """The state the run ends in, once it has made every call of its
        reference: a copy of the reference's final state with its columns
        relabelled and the frame applied."""
        if self._e < self._ref.size:
            raise RuntimeError("the run has not reached its reference's end")
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

    def _ref_ids(self, qubits) -> tuple:
        try:
            return tuple(map(self._sig.__getitem__, qubits))
        except KeyError as err:
            raise ValueError(f"no live qubit {err.args[0]!r}") from None

    # -- the call surface ---------------------------------------------------------
    def append_qubits(self, k: int) -> list[int]:
        ids = tuple(range(self._next_id, self._next_id + k))
        self._take("append", ids)
        self._sig.update(zip(ids, ids))
        self._next_id += k
        return list(ids)

    def relabel(self, ids, pi) -> None:
        """The run placed the register ``ids`` (position order) by the
        permutation ``pi``: its role-r qubit takes the label of the
        reference's role-r qubit of the same placing.  Only qubits that no
        call has touched since their append change label."""
        roles = [ids[p] for p in pi]
        old = self._ref_ids(roles)
        new, kept, fresh = self._take("relabel", tuple(sorted(old)))
        held = kept | (self._fx | self._fz) & fresh
        if any(held >> a & 1 and a != b for a, b in zip(old, new)):
            raise RuntimeError("the run leaves its reference mid-run: a "
                               "register placed unlike the reference's")
        self._sig.update(zip(roles, new))

    def apply_gate(self, name: str, *qubits: int) -> None:
        if name not in _PAULI_GATES:
            return self._push(self._take("gates", ((name,),
                                                   self._ref_ids(qubits))))
        (r,) = self._ref_ids(qubits)
        self._fx ^= (name != "Z") << r
        self._fz ^= (name != "X") << r

    def apply_gates(self, gates) -> None:
        self._push(self._take("gates", _gate_key(gates, self._ref_ids)))

    def apply_pauli(self, p, qubits) -> None:
        labels = self._ref_ids(qubits)
        width = (1 << len(labels)) - 1
        self._fx ^= _spread(p.x & width, labels)
        self._fz ^= _spread(p.z & width, labels)

    def bell_measure(self, pairs, rng, sink=None) -> list[int]:
        # every pair first: a lazy pair's own calls come before the block
        ids = [u for pair in pairs for u in pair]
        labels = self._ref_ids(ids)
        step = self._take("bell", tuple(sorted(zip(labels[::2],
                                                   labels[1::2]))))
        return self._measure(step, ids, labels, rng, sink)

    def measure_and_drop(self, ids, rng, sink=None) -> list[int]:
        labels = self._ref_ids(ids)
        return self._measure(self._take("drop", tuple(sorted(labels))), ids,
                             labels, rng, sink)

    def _measure(self, step, ids, labels, rng, sink) -> list[int]:
        """Measure the reference ids ``labels`` in this order, each a pivot
        (the next of the block's bits, all drawn by one call) or read; then
        the frame takes the chosen flips and the run drops ``ids``."""
        images, out, basis, support, keep = step
        if images is not None:
            self._push(images)
        read = out ^ self._fx  # the outcomes with the flips so far
        vecs = dict(basis)
        draws = iter(rng.integers(0, 2, len(basis)).tolist() if basis else ())
        cx = cz = 0
        bits = []
        for r in labels:
            v = vecs.pop(r, None)
            if v is None and support >> r & 1:
                hits = [p for p, (px, _) in vecs.items() if px >> r & 1]
                if hits:
                    v = vecs.pop(hits[0])
                    for p in hits[1:]:
                        px, pz = vecs[p]
                        vecs[p] = (px ^ v[0], pz ^ v[1])
            bit = read >> r & 1
            if v is not None:
                drawn = next(draws)
                if drawn != bit:
                    read ^= v[0]
                    cx ^= v[0]
                    cz ^= v[1]
                bit = drawn
            bits.append(bit)
            if sink is not None:
                sink(1.0 if v is None else 0.5)
        self._fx = (self._fx ^ cx) & keep
        self._fz = (self._fz ^ cz) & keep
        for u in ids:
            del self._sig[u]
        return bits
