"""Computing on authenticated data: the gate gadgets, written once.

Each gadget has two halves.  The receiver's half is an ``AuthSession``: it
holds the quantum state and the authenticated registers, applies the
gadget's transversal operations, measures, and lets a magic register take
over the data register's role.  The verifier's half is a
``VerifierState``: it holds the classical Pauli keys, decodes the
receiver's measurement records, updates the keys and answers with the
decoded bits.  The one-time program (``qotp``) and ``run_encoded_circuit``
both walk ``build_schedule`` and call the same two halves.

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
from .trap import (TrapCode, RecordDecode, authenticate_register,
                   sample_auth_key, verify_and_decode)


# ---------------------------------------------------------------------------
# the round schedule and the magic-register names
# ---------------------------------------------------------------------------

def magic_requirements(circuit) -> list[str]:
    """Magic-register kinds consumed by the circuit, in order.

    Every T provisions its own correction K-magic in the following slot, so
    the register count is (#K + #H + #T) + #T.
    """
    kinds = []
    for g in circuit:
        name = g[0]
        if name == "K":
            kinds.append("K")
        elif name == "T":
            kinds.extend(["T", "K"])
        elif name == "H":
            kinds.append("H")
    return kinds


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


def magic_slots(circuit) -> list[tuple[str, tuple]]:
    """(kind, register names) of every magic slot of ``circuit``."""
    return [(kind, magic_pair_names(slot) if kind == "H"
             else (magic_register_name(slot),))
            for slot, kind in enumerate(magic_requirements(circuit))]


# ---------------------------------------------------------------------------
# the verifier's half
# ---------------------------------------------------------------------------

class VerifierState:
    """Classical verifier: keys, decoding, updates, cheat flag."""

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator]):
        self.trap = trap
        self.keys = dict(keys)
        self.cheated = False

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
               hadamard: bool = False) -> RecordDecode:
        mask = 0
        for p, b in enumerate(c_bits):
            mask |= (b & 1) << p
        mask ^= self.keys[reg].x
        rec = self.trap.decode_record(mask, hadamard=hadamard)
        if not rec.accepted:
            self.cheated = True
        return rec

    # -- one gadget round -----------------------------------------------------
    def gadget_round(self, kind: str, data: str, slot: int,
                     record: list[int], need_k: bool | None) -> list[int]:
        """Decode the record of one round and update the keys to match the
        receiver's ``AuthSession.gadget_round``; returns the reply bits.
        ``need_k`` is the reply of the preceding ``round-T``."""
        if kind == "round-H":
            out, pair = magic_pair_names(slot)
            n3 = self.trap.n
            self.update_cnot(data, pair)
            self.update_bitwise_h(data)
            rec_x = self.decode(data, record[:n3], hadamard=True)
            rec_z = self.decode(pair, record[n3:])
            del self.keys[pair]
            self.rename(out, data)
            if rec_z.logical_bit:
                self.update_pauli_gate(data, "Z")
            if rec_x.logical_bit:
                self.update_pauli_gate(data, "X")
            return [rec_x.logical_bit, rec_z.logical_bit]
        magic = magic_register_name(slot)
        if kind == "round-Tcorr" and not need_k:
            rec = self.decode(magic, record)
            del self.keys[magic]
            return [rec.logical_bit]
        # K, T and the K correction of T: the magic register takes over
        self.update_cnot(magic, data)
        rec = self.decode(data, record)
        self.rename(magic, data)
        if rec.logical_bit:
            self.update_pauli_gate(data, "X" if kind == "round-T" else "Y")
        return [rec.logical_bit]


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
    """The receiver's side: the state and its authenticated registers."""

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator],
                 state, rng):
        self.trap = trap
        self.state = state
        self.rng = rng  # Born sampling of every measurement outcome
        # the sender's keys, which the preparers authenticate under
        self.initial_keys = dict(keys)
        self.registers: dict[str, Register] = {}
        self.magic: list[tuple[str, tuple]] = []  # (kind, names) per slot
        self._groups: dict[str, Callable] = {}
        self.aux: dict = {}  # preparer-owned bookkeeping, cloned with state
        self.prob_weight = 1.0

    # -- register lifecycle -----------------------------------------------------
    def declare(self, name: str, preparer: Callable | None = None,
                group: tuple | None = None) -> None:
        """Declare a register; ``preparer(session)`` must materialize every
        register of its group (set .ids and .status)."""
        self.registers[name] = Register(name)
        if preparer is not None:
            for member in group or (name,):
                self._groups[member] = preparer

    def declare_magic(self, circuit) -> None:
        """Declare the magic registers ``circuit`` consumes."""
        for kind, names in magic_slots(circuit):
            prep = magic_preparer(kind, names)
            for nm in names:
                self.declare(nm, prep, group=names)
            self.magic.append((kind, names))

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
            prep = self._groups.get(name)
            if prep is None:
                raise ValueError(f"register {name} has no preparer")
            prep(self)
            if reg.status != "live":
                raise AssertionError("preparer did not materialize "
                                     f"register {name}")
            for p in reg.pending:
                self.state.apply_pauli(p, reg.ids)
            reg.pending.clear()
        return reg

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
        for qc, qt in zip(rc.ids, rt.ids):
            self.state.apply_gate("CNOT", qc, qt)

    def bitwise_h_physical(self, reg: str) -> None:
        r = self.materialize(reg)
        for q in r.ids:
            self.state.apply_gate("H", q)

    def take_over(self, data: str, magic: str) -> None:
        """The magic register becomes the data register."""
        reg_magic = self.registers[magic]
        self.registers[data] = Register(data, "live", reg_magic.ids, [])
        self.registers[magic] = Register(magic, "consumed")

    def measure_register(self, name: str) -> list[int]:
        """Measure every qubit of the register, then let the state drop
        them."""
        reg = self.materialize(name)
        bits = []
        for q in reg.ids:
            bit, prob = self.state.measure(q, rng=self.rng)
            bits.append(bit)
            self._weigh(prob)
        reg.status = "consumed"
        self.state.discard(reg.ids)
        return bits

    # -- one gadget round -----------------------------------------------------
    def gadget_round(self, kind: str, data: str, slot: int,
                     need_k: bool | None) -> tuple[tuple, tuple | None]:
        """The quantum operations of one round before its measurement.

        Returns the registers to measure, in record order, and the (data,
        magic) pair whose magic register takes over once they are measured
        (None for the bare consume of an unused correction magic).
        ``need_k`` is the verifier's reply to the preceding ``round-T``.
        """
        if kind == "round-H":
            out, pair = magic_pair_names(slot)
            self.materialize(out)
            self.transversal_cnot_physical(data, pair)
            self.bitwise_h_physical(data)
            return (data, pair), (data, out)
        magic = magic_register_name(slot)
        if kind == "round-Tcorr" and not need_k:
            return (magic,), None
        self.transversal_cnot_physical(magic, data)
        return (data,), (data, magic)

    def recover_register(self, name: str, key: PauliOperator
                         ) -> tuple[bool, int]:
        """De-authenticate a register under the verifier's ``key``.

        Measures every syndrome and trap qubit; returns (accepted, the live
        data qubit id).
        """
        reg = self.materialize(name)
        reg.status = "consumed"
        return verify_and_decode(self.state, self.trap, key, reg.ids,
                                 self.rng)


# ---------------------------------------------------------------------------
# sender-side preparation
# ---------------------------------------------------------------------------

T_MAGIC_AMPLITUDES = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)


def new_t_magic_qubit(state) -> int:
    """Append one qubit in |0> + e^{i pi/4}|1> (normalized)."""
    if hasattr(state, "inject_magic"):
        return state.inject_magic("T")[0]
    if hasattr(state, "append_amplitudes"):
        return state.append_amplitudes(T_MAGIC_AMPLITUDES.copy())[0]
    raise ValueError("backend cannot represent a T-type magic state")


def authenticate_into(session: AuthSession, name: str, data_qubit: int) -> None:
    ids = authenticate_register(session.state, session.trap,
                                session.initial_keys[name], data_qubit)
    session.adopt(name, ids)


def magic_preparer(kind: str, names: tuple) -> Callable:
    """Preparer closure producing an authenticated magic register (group)."""

    def prep(session: AuthSession) -> None:
        st = session.state
        if kind == "K":
            q = st.append_qubits(1)[0]
            st.apply_gate("H", q)
            st.apply_gate("K", q)
            authenticate_into(session, names[0], q)
        elif kind == "T":
            q = new_t_magic_qubit(st)
            authenticate_into(session, names[0], q)
        elif kind == "H":
            a, b = st.append_qubits(2)
            st.apply_gate("H", a)
            st.apply_gate("CNOT", a, b)
            st.apply_gate("H", b)
            authenticate_into(session, names[0], a)
            authenticate_into(session, names[1], b)
        else:
            raise ValueError(f"unknown magic kind {kind!r}")

    return prep


def eigenstate_preparer(name: str, label: str) -> Callable:
    """Preparer of register ``name``: the Pauli eigenstate ``label``,
    authenticated."""

    def prep(session: AuthSession) -> None:
        q = pauli_eigenstate_prep(label)(session.state)
        authenticate_into(session, name, q)

    return prep


def pauli_eigenstate_prep(label: str) -> Callable:
    """Logical preparation of |0>,|1>,|+>,|->,|+i>,|-i>."""

    def prep(state) -> int:
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

    return prep


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

def run_encoded_circuit(session: AuthSession, verifier: VerifierState,
                        circuit, data_regs: list[str]
                        ) -> tuple[list[tuple], list[tuple]]:
    """Execute the gadget sequence for ``circuit`` on authenticated data.

    ``circuit`` is a gate list over logical wires; ``data_regs[w]`` names the
    register holding wire w.  Returns the measurement record and the
    verifier's reply of every round, as a protocol run does.
    """
    if session.magic != magic_slots(circuit):
        raise ValueError("magic inventory mismatch: need "
                         f"{magic_requirements(circuit)}, have "
                         f"{[kind for kind, _ in session.magic]}")
    steps, _ = build_schedule(circuit)
    records, replies = [], []
    need_k = None
    for step in steps:
        kind = step[0]
        if kind == "pauli":
            verifier.update_pauli_gate(data_regs[step[2]], step[1])
            continue
        if kind == "cnot":
            control, target = data_regs[step[1]], data_regs[step[2]]
            session.transversal_cnot_physical(control, target)
            verifier.update_cnot(control, target)
            continue
        data, slot = data_regs[step[1]], step[2]
        measured, takeover = session.gadget_round(kind, data, slot, need_k)
        record = []
        for name in measured:
            record += session.measure_register(name)
        if takeover is not None:
            session.take_over(*takeover)
        reply = verifier.gadget_round(kind, data, slot, record, need_k)
        need_k = bool(reply[0]) if kind == "round-T" else None
        records.append(tuple(record))
        replies.append(tuple(reply))
    return records, replies


def make_gadget_session(base_code, circuit, input_labels: list[str],
                        backend, rng
                        ) -> tuple[AuthSession, VerifierState, list[str]]:
    """Fresh keys, the receiver's session with declared data registers
    ("D0", ...) and magic registers, and the verifier holding the keys."""
    data_names = [f"D{i}" for i in range(len(input_labels))]
    magic_names = [nm for _, names in magic_slots(circuit) for nm in names]
    key = sample_auth_key(base_code, data_names + magic_names, rng)
    session = AuthSession(key.trap, key.pauli_keys, backend, rng)
    for name, label in zip(data_names, input_labels):
        session.declare(name, eigenstate_preparer(name, label))
    session.declare_magic(circuit)
    return session, VerifierState(key.trap, key.pauli_keys), data_names
