"""Computing on authenticated data: gate gadgets and verifier key updates.

A session holds both roles of the interaction: the attacker side (quantum
operations on authenticated registers, measurements, records sent) and the
verifier side (classical keys, record decoding, key updates, corrections).
The message log is the unit of audit; the verifier logic is deliberately
self-contained so the one-time-program layer can wrap it into round
functions unchanged.

Gadget flows (all registers share one trap-code key):

- Pauli gates: attacker does nothing, verifier multiplies the key.
- CNOT: bitwise transversal CNOT between position-paired physical qubits.
- K: transversal CNOT from the K-magic register into the data register,
  bitwise measurement of the old data register, conditional key-level Y on
  the former magic register, which becomes the data register (one-way).
- T: same with T-magic; the correction is KX, so the verifier must reply
  whether a K gadget (consuming the provisioned K-magic) is required
  (two-way).  An unused correction magic is consumed by bare measurement.
- H: teleport-through-Hadamard against an authenticated two-register magic
  pair, with bitwise H immediately before measurement; decoding swaps the
  trap roles (one-way).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .paulis import PauliOperator
from .trap import TrapCode, RecordDecode, authenticate_register


@dataclass(frozen=True)
class MagicSlot:
    kind: str         # "K" | "T" | "H"
    names: tuple      # one register name (K/T) or two (H pair)


@dataclass
class Register:
    name: str
    status: str = "virtual"            # virtual | live | consumed
    ids: list | None = None            # physical-position order, length 3n
    pending: list = field(default_factory=list)  # queued attack Paulis


class VerifierState:
    """Classical verifier: keys, decoding, updates, cheat flag."""

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator]):
        self.trap = trap
        self.keys = dict(keys)
        self.cheated = False

    # -- representations ------------------------------------------------------
    def _rep(self, letter: str) -> PauliOperator:
        base = self.trap.base
        x = self.trap.embed_base_mask(base.logical_x) if letter in "XY" else 0
        z = self.trap.embed_base_mask(base.logical_z) if letter in "ZY" else 0
        return PauliOperator.from_masks(self.trap.n, x, z)

    # -- key updates ----------------------------------------------------------
    def update_pauli_gate(self, reg: str, letter: str) -> None:
        self.keys[reg] = self.keys[reg] * self._rep(letter)

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


class AuthSession:
    """One verifier/attacker pair sharing a trap-code key."""

    def __init__(self, trap: TrapCode, keys: dict[str, PauliOperator],
                 state, rng, discard_measured: bool = False):
        self.trap = trap
        self.state = state
        self.rng = rng  # Born sampling of every measurement outcome
        self.discard_measured = discard_measured
        # sender-side authentication always uses the sampled keys; the
        # verifier's table evolves separately under gadget key updates
        self.initial_keys = dict(keys)
        self.verifier = VerifierState(trap, keys)
        self.registers: dict[str, Register] = {}
        self._groups: dict[str, Callable] = {}
        self.log: list[dict] = []
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

    def attack(self, name: str, pauli: PauliOperator) -> None:
        reg = self.registers[name]
        if reg.status == "live":
            self.state.apply_pauli(pauli, reg.ids)
        elif reg.status == "virtual":
            reg.pending.append(pauli)
        else:
            raise ValueError(f"register {name} already consumed")
        self.log.append({"event": "attack", "register": name,
                         "pauli": pauli.to_label()})

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

    def transversal_cnot(self, control: str, target: str) -> None:
        self.transversal_cnot_physical(control, target)
        self.verifier.update_cnot(control, target)

    def bitwise_h_physical(self, reg: str) -> None:
        r = self.materialize(reg)
        for q in r.ids:
            self.state.apply_gate("H", q)

    def bitwise_h(self, reg: str) -> None:
        self.bitwise_h_physical(reg)
        self.verifier.update_bitwise_h(reg)

    def take_over(self, data: str, magic: str) -> None:
        """Attacker-side bookkeeping: the magic register becomes the data."""
        reg_magic = self.registers[magic]
        self.registers[data] = Register(data, "live", reg_magic.ids, [])
        self.registers[magic] = Register(magic, "consumed")

    def measure_register(self, name: str) -> list[int]:
        reg = self.materialize(name)
        bits = []
        for q in reg.ids:
            bit, prob = self.state.measure(q, rng=self.rng)
            bits.append(bit)
            self._weigh(prob)
        reg.status = "consumed"
        if self.discard_measured:
            self.state.discard(reg.ids)
        return bits

    # -- gadgets ------------------------------------------------------------
    def gadget_pauli(self, letter: str, reg: str) -> dict:
        self.verifier.update_pauli_gate(reg, letter)
        entry = {"gate": letter, "register": reg, "c_bits": None,
                 "a_bit": None, "correction": None}
        self.log.append(entry)
        return entry

    def gadget_cnot(self, control: str, target: str) -> dict:
        self.transversal_cnot(control, target)
        entry = {"gate": "CNOT", "register": f"{control}->{target}",
                 "c_bits": None, "a_bit": None, "correction": None}
        self.log.append(entry)
        return entry

    def _consume_into(self, data: str, magic: str) -> None:
        """The former magic register takes over the data register's role."""
        self.take_over(data, magic)
        self.verifier.rename(magic, data)

    def gadget_k(self, reg: str, magic: str) -> dict:
        self.materialize(magic)
        self.transversal_cnot(magic, reg)
        c = self.measure_register(reg)
        rec = self.verifier.decode(reg, c)
        del self.verifier.keys[reg]
        self._consume_into(reg, magic)
        if rec.logical_bit:
            self.verifier.update_pauli_gate(reg, "Y")
        entry = {"gate": "K", "register": reg, "c_bits": c,
                 "a_bit": rec.logical_bit,
                 "correction": "Y" if rec.logical_bit else None,
                 "accepted": rec.accepted}
        self.log.append(entry)
        return entry

    def gadget_t(self, reg: str, magic: str, correction_magic: str) -> dict:
        self.materialize(magic)
        self.transversal_cnot(magic, reg)
        c = self.measure_register(reg)
        rec = self.verifier.decode(reg, c)
        del self.verifier.keys[reg]
        self._consume_into(reg, magic)
        need_k = bool(rec.logical_bit)
        entry = {"gate": "T", "register": reg, "c_bits": c,
                 "a_bit": rec.logical_bit,
                 "correction": "KX" if need_k else None,
                 "accepted": rec.accepted}
        self.log.append(entry)
        if need_k:
            self.verifier.update_pauli_gate(reg, "X")
            self.gadget_k(reg, correction_magic)
        else:
            self.bare_consume(correction_magic)
        return entry

    def gadget_h(self, reg: str, magic_out: str, magic_in: str) -> dict:
        """Teleport through the Hadamard magic pair.

        ``magic_out`` carries the output; ``magic_in`` absorbs the CNOT from
        the data register and is measured alongside it.
        """
        self.materialize(magic_out)
        self.materialize(magic_in)
        self.transversal_cnot(reg, magic_in)
        self.bitwise_h(reg)
        c_data = self.measure_register(reg)
        rec_x = self.verifier.decode(reg, c_data, hadamard=True)
        c_pair = self.measure_register(magic_in)
        rec_z = self.verifier.decode(magic_in, c_pair)
        del self.verifier.keys[reg]
        del self.verifier.keys[magic_in]
        self._consume_into(reg, magic_out)
        if rec_z.logical_bit:
            self.verifier.update_pauli_gate(reg, "Z")
        if rec_x.logical_bit:
            self.verifier.update_pauli_gate(reg, "X")
        entry = {"gate": "H", "register": reg, "c_bits": c_data + c_pair,
                 "a_bit": (rec_x.logical_bit, rec_z.logical_bit),
                 "correction": f"X^{rec_x.logical_bit} Z^{rec_z.logical_bit}",
                 "accepted": rec_x.accepted and rec_z.accepted}
        self.log.append(entry)
        return entry

    def bare_consume(self, magic: str) -> dict:
        """Measure an unused correction magic so the round count is fixed."""
        self.materialize(magic)
        c = self.measure_register(magic)
        rec = self.verifier.decode(magic, c)
        del self.verifier.keys[magic]
        entry = {"gate": "consume", "register": magic, "c_bits": c,
                 "a_bit": rec.logical_bit, "correction": None,
                 "accepted": rec.accepted}
        self.log.append(entry)
        return entry

    def authenticated_measure(self, reg: str) -> tuple[list[int], int, bool]:
        """Bitwise measurement plus verifier-side decode of a data register."""
        c = self.measure_register(reg)
        rec = self.verifier.decode(reg, c)
        entry = {"gate": "measure", "register": reg, "c_bits": c,
                 "a_bit": rec.logical_bit, "correction": None,
                 "accepted": rec.accepted}
        self.log.append(entry)
        return c, rec.logical_bit, rec.accepted

    def recover_register(self, name: str) -> tuple[bool, int]:
        """De-authenticate a register with the verifier's key.

        Measures every syndrome and trap qubit; returns (accepted, the live
        data qubit id).
        """
        reg = self.materialize(name)
        key = self.verifier.keys[name]
        self.state.apply_pauli(key.adjoint(), reg.ids)
        for g in self.trap.decoding_ops(reg.ids):
            self.state.apply_gate(*g)
        accepted = True
        dpos = self.trap.data_position()
        for p in range(self.trap.n):
            if p == dpos:
                continue
            bit, prob = self.state.measure(reg.ids[p], rng=self.rng)
            self._weigh(prob)
            if bit:
                accepted = False
        reg.status = "consumed"
        return accepted, reg.ids[dpos]


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


def data_preparer(name: str, logical_prep: Callable) -> Callable:
    """Preparer for a data register; ``logical_prep(state) -> qubit id``."""

    def prep(session: AuthSession) -> None:
        q = logical_prep(session.state)
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


def run_encoded_circuit(session: AuthSession, circuit,
                        data_regs: list[str],
                        inventory: list[MagicSlot]) -> list[dict]:
    """Execute the gadget sequence for ``circuit`` on authenticated data.

    ``circuit`` is a gate list over logical wires; ``data_regs[w]`` names the
    register holding wire w.  ``inventory`` lists the authenticated magic
    registers in consumption order.
    """
    need = magic_requirements(circuit)
    have = [slot.kind for slot in inventory]
    if need != have:
        raise ValueError(f"magic inventory mismatch: need {need}, have {have}")
    slots = iter(inventory)
    transcript = []
    for g in circuit:
        name = g[0]
        if name in ("X", "Y", "Z"):
            transcript.append(session.gadget_pauli(name, data_regs[g[1]]))
        elif name == "CNOT":
            transcript.append(
                session.gadget_cnot(data_regs[g[1]], data_regs[g[2]]))
        elif name == "K":
            slot = next(slots)
            transcript.append(session.gadget_k(data_regs[g[1]], slot.names[0]))
        elif name == "T":
            slot_t = next(slots)
            slot_k = next(slots)
            transcript.append(session.gadget_t(
                data_regs[g[1]], slot_t.names[0], slot_k.names[0]))
        elif name == "H":
            slot = next(slots)
            transcript.append(session.gadget_h(
                data_regs[g[1]], slot.names[0], slot.names[1]))
        else:
            raise ValueError(f"gate {name!r} outside the universal set")
    return transcript


def make_gadget_session(base_code, circuit, input_labels: list[str],
                        backend, rng, discard_measured: bool = False
                        ) -> tuple[AuthSession, list[str], list[MagicSlot]]:
    """Fresh keys, declared data registers ("D0", ...) and magic inventory."""
    from .trap import sample_auth_key

    data_names = [f"D{i}" for i in range(len(input_labels))]
    kinds = magic_requirements(circuit)
    magic_names = []
    for i, kind in enumerate(kinds):
        magic_names.extend([f"M{i}a", f"M{i}b"] if kind == "H" else [f"M{i}"])
    key = sample_auth_key(base_code, data_names + magic_names, rng)
    session = AuthSession(key.trap, key.pauli_keys, backend, rng,
                          discard_measured)
    for name, label in zip(data_names, input_labels):
        session.declare(name, data_preparer(name, pauli_eigenstate_prep(label)))
    slots = []
    for i, kind in enumerate(kinds):
        names = (f"M{i}a", f"M{i}b") if kind == "H" else (f"M{i}",)
        prep = magic_preparer(kind, names)
        for nm in names:
            session.declare(nm, prep, group=names)
        slots.append(MagicSlot(kind, names))
    return session, data_names, slots


def transcript_to_json(transcript: list[dict]) -> str:
    def clean(entry):
        out = dict(entry)
        if out.get("c_bits") is not None:
            out["c_bits"] = "".join(str(b) for b in out["c_bits"])
        if isinstance(out.get("a_bit"), tuple):
            out["a_bit"] = list(out["a_bit"])
        return out

    return json.dumps([clean(e) for e in transcript], sort_keys=True)
