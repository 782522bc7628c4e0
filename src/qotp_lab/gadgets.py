"""Computing on authenticated data: the gate gadgets, written once.

Each gadget has two halves, and each half walks the round schedule of
``build_schedule`` on its own.  The receiver's half is an ``AuthSession``:
it holds the quantum state and the authenticated registers; its
``next_round`` runs the transversal CNOTs up to the next round and that
round's operations before measurement, and a magic register then takes
over the data register's role.  The verifier's half is a
``VerifierState``: it holds the classical Pauli keys, applies the silent
Pauli and CNOT key updates, decodes the receiver's measurement record of
every round (``process_round``), updates the keys and answers with the
decoded bits; ``verdict`` finishes the schedule.  Apart from
``build_schedule`` and ``magic_slots``, only the two halves read a step's
kind.  The one-time program (``qotp``) and ``run_encoded_circuit`` just
drive them: they measure what the session asks for and hand each record
to the verifier.

Gadget flows (all registers share one trap-code key):

- Pauli gates: the receiver does nothing, the verifier multiplies the key.
- CNOT: bitwise transversal CNOT between position-paired physical qubits.
- K: transversal CNOT from the K-magic register into the data register,
  bitwise measurement of the old data register, conditional key-level Y on
  the former magic register, which becomes the data register (one-way).
- T: same with T-magic; the correction is KX, so the verifier replies
  whether a K gadget (consuming the provisioned K-magic) is required
  (two-way).  An unused correction magic is consumed by bare measurement.
- H: teleport-through-Hadamard against an authenticated two-register magic
  pair, with bitwise H immediately before measurement; decoding swaps the
  trap roles (one-way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .paulis import PauliOperator
from .trap import (TrapCode, authenticate_register, place_register,
                   sample_auth_key, verify_and_decode)


# ---------------------------------------------------------------------------
# the round schedule and the magic-register names
# ---------------------------------------------------------------------------

def build_schedule(circuit) -> tuple[list, int]:
    """Step list shared by the verifier and the receiver, and its slot
    count.  A step is ``("pauli", letter, wire)``, ``("cnot", control,
    target)`` or ``(round kind, wire, magic slot)``."""
    steps = []
    slot = 0
    for g in circuit:
        if g[0] in ("X", "Y", "Z"):
            steps.append(("pauli", g[0], g[1]))
        elif g[0] == "CNOT":
            steps.append(("cnot", g[1], g[2]))
        elif g[0] == "K":
            steps.append(("round-K", g[1], slot))
            slot += 1
        elif g[0] == "T":
            steps.append(("round-T", g[1], slot))
            steps.append(("round-Tcorr", g[1], slot + 1))
            slot += 2
        elif g[0] == "H":
            steps.append(("round-H", g[1], slot))
            slot += 1
        else:
            raise ValueError(f"gate {g[0]!r} outside the universal set")
    return steps, slot


def magic_register_name(slot: int) -> str:
    return f"M{slot}"


def magic_pair_names(slot: int) -> tuple[str, str]:
    """The Hadamard pair of ``slot``: (output register, measured register)."""
    return f"M{slot}", f"M{slot}pair"


# the magic kind each round consumes: a T correction consumes a K-magic
_SLOT_KINDS = {"round-K": "K", "round-T": "T", "round-Tcorr": "K",
               "round-H": "H"}


def magic_slots(steps) -> list[tuple[str, tuple]]:
    """(kind, register names) of every magic slot of the schedule
    ``steps``, in slot order."""
    return [(_SLOT_KINDS[kind], magic_pair_names(slot) if kind == "round-H"
             else (magic_register_name(slot),))
            for kind, _, slot in steps if kind in _SLOT_KINDS]


# ---------------------------------------------------------------------------
# the verifier's half
# ---------------------------------------------------------------------------

class VerifierState:
    """The verifier's half: the classical Pauli keys and the verifier's place
    in the round schedule ``steps``.

    It applies the silent Pauli and CNOT key updates itself.  Every round
    decodes one measurement record, updates the keys to match the
    receiver's ``AuthSession.next_round`` and replies with the decoded
    bit(s).  A record of the wrong length, a rejected decode or an unplayed
    round marks the run as cheating; cheating is remembered, never revealed
    mid-run.  ``data[w]`` names the register holding wire w.
    """

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator],
                 steps, data):
        self.trap = trap
        self.keys = dict(keys)
        self.steps = steps
        self.data = data
        self.cheated = False
        self.pc = 0          # the next step of ``steps``
        self.need_k = None   # the last round-T's reply: K correction due

    # -- key updates ----------------------------------------------------------
    def update_pauli_gate(self, reg: str, letter: str) -> None:
        self.keys[reg] = self.keys[reg] * self.trap.logical_pauli(letter)

    def update_cnot(self, control: str, target: str) -> None:
        pc, pt = self.keys[control], self.keys[target]
        n = self.trap.n
        self.keys[control] = PauliOperator.from_masks(n, pc.x, pc.z ^ pt.z)
        self.keys[target] = PauliOperator.from_masks(n, pt.x ^ pc.x, pt.z)

    def update_bitwise_h(self, reg: str) -> None:
        p = self.keys[reg]
        self.keys[reg] = PauliOperator.from_masks(self.trap.n, p.z, p.x)

    def rename(self, old: str, new_owner_of: str) -> None:
        self.keys[new_owner_of] = self.keys.pop(old)

    # -- decoding ---------------------------------------------------------------
    def decode(self, reg: str, c_bits: list[int],
               hadamard: bool = False) -> int:
        """The logical bit of ``reg``'s record; a rejected record marks the
        run as cheating."""
        mask = 0
        for p, b in enumerate(c_bits):
            mask |= (b & 1) << p
        mask ^= self.keys[reg].x
        bit, accepted = self.trap.decode_record(mask, hadamard=hadamard)
        if not accepted:
            self.cheated = True
        return bit

    # -- the schedule walk -----------------------------------------------------
    def _advance(self) -> tuple | None:
        """Apply the silent key updates up to the next round; returns that
        round's step, or None at the end of the schedule."""
        steps = self.steps
        while self.pc < len(steps):
            step = steps[self.pc]
            if step[0] == "pauli":
                self.update_pauli_gate(self.data[step[2]], step[1])
            elif step[0] == "cnot":
                self.update_cnot(self.data[step[1]], self.data[step[2]])
            else:
                return step
            self.pc += 1
        return None

    def process_round(self, record: list[int]) -> list[int]:
        """Decode the record of the next round and update the keys; returns
        the reply bits."""
        step = self._advance()
        if step is None:
            raise RuntimeError("no reactive round pending")
        self.pc += 1
        kind, wire, slot = step
        data = self.data[wire]
        n3 = self.trap.n
        if len(record) != (2 * n3 if kind == "round-H" else n3):
            self.cheated = True
        need_k, self.need_k = self.need_k, None
        if kind == "round-H":
            out, pair = magic_pair_names(slot)
            self.update_cnot(data, pair)
            self.update_bitwise_h(data)
            bit_x = self.decode(data, record[:n3], hadamard=True)
            bit_z = self.decode(pair, record[n3:])
            del self.keys[pair]
            self.rename(out, data)
            if bit_z:
                self.update_pauli_gate(data, "Z")
            if bit_x:
                self.update_pauli_gate(data, "X")
            return [bit_x, bit_z]
        magic = magic_register_name(slot)
        if kind == "round-Tcorr" and not need_k:
            bit = self.decode(magic, record)
            del self.keys[magic]
            return [bit]
        # K, T and the K correction of T: the magic register takes over
        self.update_cnot(magic, data)
        bit = self.decode(data, record)
        self.rename(magic, data)
        if bit:
            self.update_pauli_gate(data, "X" if kind == "round-T" else "Y")
        if kind == "round-T":
            self.need_k = bool(bit)
        return [bit]

    def verdict(self) -> bool:
        """Apply the silent steps after the last round and decide the run:
        True when it cheated or left a round unplayed."""
        if self._advance() is not None:
            self.cheated = True
        return self.cheated


# ---------------------------------------------------------------------------
# the receiver's half
# ---------------------------------------------------------------------------

@dataclass
class Register:
    name: str
    status: str = "virtual"            # virtual | live | consumed
    ids: list | None = None            # physical-position order, length 3n
    pending: list = field(default_factory=list)  # queued attack Paulis


class AuthSession:
    """The receiver's half: the state, its authenticated registers and the
    receiver's place in the round schedule ``steps``.  ``data[w]`` names
    the register holding wire w.

    Only the session changes a register's status: ``materialize`` runs a
    virtual register's preparer, which ``adopt``s it live, and ``consume``
    and ``take_over`` retire it."""

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator],
                 state, rng, steps, data):
        self.trap = trap
        self.state = state
        self.rng = rng  # Born sampling of every measurement outcome
        # the sender's keys, which the preparers authenticate under
        self.initial_keys = dict(keys)
        self.steps = steps
        self.data = data
        self.pc = 0  # the next step of ``steps``
        self.registers: dict[str, Register] = {}
        self._groups: dict[str, Callable] = {}
        self.prob_weight = 1.0

    def clone(self, state) -> "AuthSession":
        """This session continued on ``state``, with its own register
        table."""
        ses = AuthSession.__new__(AuthSession)
        ses.__dict__.update(self.__dict__)
        ses.state = state
        ses.registers = {
            name: Register(r.name, r.status,
                           None if r.ids is None else list(r.ids),
                           list(r.pending))
            for name, r in self.registers.items()}
        return ses

    # -- register lifecycle -----------------------------------------------------
    def declare(self, names: tuple, preparer: Callable) -> None:
        """Declare the registers ``names`` as one group:
        ``preparer(session)`` must ``adopt`` every one of them."""
        for name in names:
            self.registers[name] = Register(name)
            self._groups[name] = preparer

    def declare_magic(self) -> None:
        """Declare the magic registers the schedule consumes."""
        for kind, names in magic_slots(self.steps):
            self.declare(names, magic_preparer(kind, names))

    def attack(self, name: str, pauli: PauliOperator) -> None:
        reg = self.registers[name]
        if reg.status == "live":
            self.state.apply_pauli(pauli, reg.ids)
        elif reg.status == "virtual":
            reg.pending.append(pauli)
        else:
            raise ValueError(f"register {name} already consumed")

    def materialize(self, name: str) -> Register:
        reg = self.registers[name]
        if reg.status == "consumed":
            raise ValueError(f"register {name} already consumed")
        if reg.status == "virtual":
            self._groups[name](self)
            if reg.status != "live":
                raise AssertionError("preparer did not materialize "
                                     f"register {name}")
            for p in reg.pending:
                self.state.apply_pauli(p, reg.ids)
            reg.pending.clear()
        return reg

    def consume(self, name: str) -> list:
        """Materialize the register and mark it consumed; returns its
        physical ids."""
        reg = self.materialize(name)
        reg.status = "consumed"
        return reg.ids

    def adopt(self, name: str, ids: list) -> None:
        """Mark a declared register live with the given physical ids."""
        reg = self.registers[name]
        reg.ids = list(ids)
        reg.status = "live"

    # -- primitive quantum steps ---------------------------------------------
    def _weigh(self, p: float) -> None:
        self.prob_weight *= p

    def transversal_cnot_physical(self, control: str, target: str) -> None:
        rc = self.materialize(control)
        rt = self.materialize(target)
        # in role order (``trap.pi``): every keyed run of a program then
        # makes one gate list, up to the relabelling of its ids
        self.state.apply_gates([("CNOT", rc.ids[p], rt.ids[p])
                                for p in self.trap.pi.mapping])

    def bitwise_h_physical(self, reg: str) -> None:
        self.state.apply_gates([("H", q) for q in self.materialize(reg).ids])

    def take_over(self, data: str, magic: str) -> None:
        """The magic register becomes the data register."""
        reg_magic = self.registers[magic]
        self.registers[data] = Register(data, "live", reg_magic.ids, [])
        self.registers[magic] = Register(magic, "consumed")

    def measure_register(self, name: str) -> list[int]:
        """Measure every qubit of the register, then let the state drop
        them."""
        return self.state.measure_and_drop(self.consume(name), self.rng,
                                           self._weigh)

    # -- the schedule walk -----------------------------------------------------
    def next_round(self, reply: list[int] | None
                   ) -> tuple[tuple, tuple | None] | None:
        """Run the transversal CNOTs up to the next round, then that round's
        quantum operations before its measurement.

        Returns the registers to measure, in record order, and the (data,
        magic) pair whose magic register takes over once they are measured
        (None for the bare consume of an unused correction magic); None at
        the end of the schedule.  ``reply`` is the verifier's reply to the
        previous round, which a ``round-Tcorr`` reads.
        """
        steps = self.steps
        while self.pc < len(steps) and steps[self.pc][0] in ("pauli", "cnot"):
            step = steps[self.pc]
            if step[0] == "cnot":
                self.transversal_cnot_physical(self.data[step[1]],
                                               self.data[step[2]])
            self.pc += 1
        if self.pc == len(steps):
            return None
        kind, wire, slot = steps[self.pc]
        self.pc += 1
        data = self.data[wire]
        if kind == "round-H":
            out, pair = magic_pair_names(slot)
            self.materialize(out)
            self.transversal_cnot_physical(data, pair)
            self.bitwise_h_physical(data)
            return (data, pair), (data, out)
        magic = magic_register_name(slot)
        if kind == "round-Tcorr" and not reply[0]:
            return (magic,), None
        self.transversal_cnot_physical(magic, data)
        return (data,), (data, magic)

    def recover_register(self, name: str, key: PauliOperator
                         ) -> tuple[bool, int]:
        """De-authenticate a register under the verifier's ``key``.

        Measures and drops every syndrome and trap qubit; returns
        (accepted, the live data qubit id).
        """
        return verify_and_decode(self.state, self.trap, key,
                                 self.consume(name), self.rng)


# ---------------------------------------------------------------------------
# sender-side preparation
# ---------------------------------------------------------------------------

T_MAGIC_AMPLITUDES = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)


def new_t_magic_qubit(state) -> int:
    """Append one qubit in |0> + e^{i pi/4}|1> (normalized)."""
    if hasattr(state, "inject_magic"):
        return state.inject_magic()[0]
    if hasattr(state, "append_amplitudes"):
        return state.append_amplitudes(T_MAGIC_AMPLITUDES.copy())[0]
    raise ValueError("backend cannot represent a T-type magic state")


def make_teleport_through(state, clifford_ops: list, n: int,
                          trap: TrapCode | None = None) -> tuple[list, list]:
    """n EPR pairs with the given operation applied to the receiving halves.

    Returns (in_ids, out_ids); ``clifford_ops`` is a gate list over the out
    wires 0..n-1 (applied after pairing).  With ``trap``, each half is a
    register in ``trap``'s position order, placed before the pairs are made
    (``place_register``), and the pairs are made in role order, so that
    every run of a program makes them as one gate list up to relabelling.
    """
    in_ids = state.append_qubits(n)
    out_ids = state.append_qubits(n)
    order = range(n)
    if trap is not None:
        place_register(state, trap, in_ids)
        place_register(state, trap, out_ids)
        order = trap.pi.mapping
    state.apply_gates(
        [g for p in order for g in (("H", in_ids[p]),
                                    ("CNOT", in_ids[p], out_ids[p]))]
        + [(g[0], *[out_ids[w] for w in g[1:]]) for g in clifford_ops])
    return in_ids, out_ids


def authenticate_into(session: AuthSession, name: str, data_qubit: int) -> None:
    ids = authenticate_register(session.state, session.trap,
                                session.initial_keys[name], data_qubit)
    session.adopt(name, ids)


def magic_preparer(kind: str, names: tuple) -> Callable:
    """Preparer of the authenticated magic register (pair) ``names``: K
    magic is the |+i> eigenstate, T magic the backend's T-magic qubit, and
    H magic the teleport-through-H resource the H gadget consumes."""

    def prep(session: AuthSession) -> None:
        st = session.state
        if kind == "H":
            (a,), (b,) = make_teleport_through(st, [("H", 0)], 1)
            authenticate_into(session, names[0], a)
            authenticate_into(session, names[1], b)
            return
        q = (new_t_magic_qubit(st) if kind == "T"
             else prepare_eigenstate(st, "+i"))
        authenticate_into(session, names[0], q)

    return prep


def eigenstate_preparer(name: str, label: str) -> Callable:
    """Preparer of register ``name``: the Pauli eigenstate ``label``,
    authenticated."""

    def prep(session: AuthSession) -> None:
        q = prepare_eigenstate(session.state, label)
        authenticate_into(session, name, q)

    return prep


def prepare_eigenstate(state, label: str) -> int:
    """Append one qubit of ``state`` in |0>,|1>,|+>,|->,|+i> or |-i>;
    returns its id."""
    q = state.append_qubits(1)[0]
    if label in ("+", "-", "+i", "-i"):
        state.apply_gate("H", q)
    if label == "1":
        state.apply_gate("X", q)
    elif label == "-":
        state.apply_gate("Z", q)
    elif label == "+i":
        state.apply_gate("K", q)
    elif label == "-i":
        state.apply_gate("K", q)
        state.apply_gate("Z", q)
    return q


EIGENSTATE_VECTORS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "+i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "-i": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


# ---------------------------------------------------------------------------
# encoded circuit runner
# ---------------------------------------------------------------------------

def run_encoded_circuit(session: AuthSession, verifier: VerifierState
                        ) -> tuple[list[tuple], list[tuple]]:
    """Drive both halves through their schedule on authenticated data.

    Measures what ``session.next_round`` asks for, hands each record to
    ``verifier.process_round`` and decides the run with
    ``verifier.verdict()``.  Returns the measurement record and the
    verifier's reply of every round, as a protocol run does.
    """
    if session.steps != verifier.steps:
        raise ValueError("the session and the verifier walk different "
                         "schedules")
    records, replies = [], []
    reply = None
    while (todo := session.next_round(reply)) is not None:
        measured, takeover = todo
        record = []
        for name in measured:
            record += session.measure_register(name)
        if takeover is not None:
            session.take_over(*takeover)
        reply = verifier.process_round(record)
        records.append(tuple(record))
        replies.append(tuple(reply))
    verifier.verdict()
    return records, replies


def make_gadget_session(base_code, circuit, input_labels: list[str],
                        backend, rng
                        ) -> tuple[AuthSession, VerifierState, list[str]]:
    """Fresh keys, the receiver's session with declared data registers
    ("D0", ...) and magic registers, and the verifier holding the keys, both
    over the schedule of ``circuit``."""
    steps, _ = build_schedule(circuit)
    data_names = [f"D{i}" for i in range(len(input_labels))]
    magic_names = [nm for _, names in magic_slots(steps) for nm in names]
    key = sample_auth_key(base_code, data_names + magic_names, rng)
    session = AuthSession(key.trap, key.pauli_keys, backend, rng, steps,
                          data_names)
    for name, label in zip(data_names, input_labels):
        session.declare((name,), eigenstate_preparer(name, label))
    session.declare_magic()
    return session, VerifierState(key.trap, key.pauli_keys, steps,
                                  data_names), data_names
