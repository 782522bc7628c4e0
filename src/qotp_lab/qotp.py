"""The quantum one-time program: controlled-circuit compilation, sender
message preparation, the reactive-program verifier, the honest receiver,
the security simulator, and exact real-vs-simulated comparison.

Roles and register names (one protocol instance, |B| logical wires):

- ``At{i}``   authenticated sender-input qubits
- ``Bin{i}`` / ``Bt{i}``   teleport-through-authentication pair: a bare EPR
  half and the authenticated half the receiver's input teleports into
- ``BoutR{i}`` / ``Bout{i}``   teleport-through-de-authentication: 3n EPR
  pairs with decode-then-encrypt applied to one side; ``Bout{i}`` is its
  one output qubit (the syndrome wires are kept but ignored)
- ``Et0`` / ``Ctl``   the authenticated |0> helper wire of controlled-T
  (present only when the channel has a T gate) and the control qubit (|1>
  in the real protocol, |0> for the simulator)
- ``M{i}``   authenticated magic registers, one per reactive round

The control qubit turns the whole compiled circuit into controlled-U; the
simulator runs it switched off and splices the one ideal evaluation in via
an extra teleportation.

``compile_controlled_program`` cuts the controlled circuit into its round
schedule once (``gadgets.build_schedule``, kept as
``CompiledProgram.steps``).  Each side walks those steps itself, as one of
the two halves in ``gadgets``: the verifier (``QotpVerifier``) is a
``VerifierState`` over them, and the receiver's ``AuthSession`` asks its
own ``next_round``.  The receiver reaches the verifier through a transport
with the verifier's method names: the direct one is the ``QotpVerifier``
itself, the real one the chained one-time program (``BrotpOracle``), which
carries the verifier's keys, cheat flag and place in the schedule from
round to round.

The receiver's side (teleport-in, the simulator's splice, the session's
gadget rounds, teleport-out) is driven by one straight-line walk, the
generator ``_walk``, which yields one ``RunResult`` per finished branch.
Every measurement on the way is handed to a strategy, which returns the
branches that go on, each with its verifier and its outcome (Bell
outcomes as x and z masks): ``_Sample`` keeps the one branch of a Born
outcome per qubit drawn from the instance's outcome stream
(``QotpInstance.run``), ``_Fan`` every joint outcome of the dense state
(``enumerate_protocol_runs``, the exact real-vs-simulated comparison).
``_Fan`` holds an instance's live branches as the rows of one stacked
state from teleport-in to teleport-out, so each gate runs once per stack,
and ends a branch in one stacked leaf: the verdict is decided once per
branch, every live teleport-out outcome's output density comes from one
stacked read of the state, and a rejected branch draws no junk key.  The
enumeration refuses a program with a T gate, whose correction rounds read
the verifier's reply and whose branches no toy run could hold, so the
stack never parts.  Every final key, sampled or
enumerated, is read by one function, ``QotpVerifier.final_keys``, with
one rule, ``TrapCode.data_key``: two parities of the accumulated key
against the encoder's images of the data wire's Z and X, for the int
masks of one run or for the mask arrays of every outcome of a stacked
leaf at once.  The comparison adds each stacked leaf into one array per
transcript prefix.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .backends import StabilizerSum, StateVector, TableauState
from .cotp import brotp_compile, brotp_query
from .css import CssCode
from .gadgets import (AuthSession, VerifierState, authenticate_into,
                      build_schedule, eigenstate_preparer, magic_slots,
                      make_teleport_through, prepare_eigenstate)
from .paulis import PauliOperator
from .trap import TrapCode, random_paulis, sample_trap_code

UNIVERSAL_GATES = ("X", "Y", "Z", "CNOT", "K", "T", "H")


# ---------------------------------------------------------------------------
# controlled-gate decomposition table (verified densely once per process)
# ---------------------------------------------------------------------------

def _tdag(t):
    return [("Z", t), ("K", t), ("T", t)]


def _kdag(t):
    # K^dag = K Z: one magic gadget instead of three
    return [("Z", t), ("K", t)]


def _b(t):
    return [("H", t), ("K", t)]


def _bdag(t):
    return _kdag(t) + [("H", t)]


def _r(t):
    return _bdag(t) + [("T", t)] + _b(t)


def _rdag(t):
    return _bdag(t) + _tdag(t) + _b(t)


def _rccx(a, b, w):
    return ([("H", w), ("T", w), ("CNOT", b, w)] + _tdag(w)
            + [("CNOT", a, w), ("T", w), ("CNOT", b, w)] + _tdag(w)
            + [("H", w)])


def _invert(gates):
    out = []
    for g in reversed(gates):
        if g[0] == "K":
            out.extend(_kdag(g[1]))
        elif g[0] == "T":
            out.extend(_tdag(g[1]))
        else:
            out.append(g)
    return out


def controlled_gate(gate: tuple, control: int, workspace: int) -> list[tuple]:
    """Decomposition of controlled-``gate`` over the universal set.

    ``workspace`` is a |0>-initialized helper wire used (and returned to
    |0>) only by the controlled-T entry.
    """
    name = gate[0]
    if name == "X":
        return [("CNOT", control, gate[1])]
    if name == "Z":
        t = gate[1]
        return [("H", t), ("CNOT", control, t), ("H", t)]
    if name == "Y":
        t = gate[1]
        return _kdag(t) + [("CNOT", control, t), ("K", t)]
    if name == "K":
        t = gate[1]
        return ([("CNOT", control, t)] + _tdag(t)
                + [("CNOT", control, t), ("T", t), ("T", control)])
    if name == "H":
        t = gate[1]
        return _r(t) + [("CNOT", control, t)] + _rdag(t)
    if name == "T":
        t = gate[1]
        fwd = _rccx(control, t, workspace)
        return fwd + [("T", workspace)] + _invert(fwd)
    if name == "CNOT":
        a, b = gate[1], gate[2]
        w = b
        return ([("H", w), ("CNOT", gate[1], w)] + _tdag(w)
                + [("CNOT", control, w), ("T", w), ("CNOT", gate[1], w)]
                + _tdag(w)
                + [("CNOT", control, w), ("T", gate[1]), ("T", w), ("H", w),
                   ("CNOT", control, gate[1])] + _tdag(gate[1])
                + [("CNOT", control, gate[1]), ("T", control)])
    raise ValueError(f"gate {name!r} outside the universal set")


@functools.cache
def verify_controlled_table() -> None:
    """Dense unitary check of every decomposition entry (build-time gate,
    run once)."""
    from . import denseops as dn

    def ctrl(u):
        d = u.shape[0]
        out = np.eye(2 * d, dtype=complex)
        out[d:, d:] = u
        return out

    for name in ("X", "Y", "Z", "K", "H"):
        gates = controlled_gate((name, 1), 0, 2)
        got = dn.circuit_matrix(2, gates)
        if not np.allclose(got, ctrl(dn.GATE_MATRICES[name]), atol=1e-10):
            raise AssertionError(f"controlled-{name} table entry is wrong")
    got = dn.circuit_matrix(3, controlled_gate(("CNOT", 1, 2), 0, None))
    if not np.allclose(got, ctrl(dn.cnot_matrix(2, 0, 1)), atol=1e-10):
        raise AssertionError("controlled-CNOT table entry is wrong")
    got = dn.circuit_matrix(3, controlled_gate(("T", 1), 0, 2))
    cols = [i for i in range(8) if i % 2 == 0]
    other = [i for i in range(8) if i % 2 == 1]
    want = np.eye(4, dtype=complex)
    want[3, 3] = np.exp(1j * np.pi / 4)
    if not (np.allclose(got[np.ix_(cols, cols)], want, atol=1e-10)
            and np.allclose(got[np.ix_(other, cols)], 0, atol=1e-10)):
        raise AssertionError("controlled-T table entry is wrong")


@dataclass(frozen=True)
class CompiledProgram:
    """Controlled form of a channel circuit, cut once into its round
    schedule and scanned once for T gates (``has_t``)."""

    base_circuit: tuple      # U over wires (A, B)
    n_a: int
    n_b: int
    uses_t_helper: bool      # extra |0> wire appended for controlled-T
    controlled_circuit: tuple  # over wires (A, B [, helper], control)
    steps: tuple             # build_schedule of controlled_circuit
    num_rounds: int          # its round steps: #K + #H + 2 #T
    has_t: bool              # the controlled circuit holds a T gate, so a
                             # run needs T-type magic states
    # per run shape: [runs begun, the reference its replays share]
    # (``QotpInstance.run``)
    replays: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)


def compile_controlled_program(circuit, n_a: int,
                               n_b: int) -> CompiledProgram:
    """Replace every gate of U with its controlled decomposition, and cut
    the result into rounds."""
    verify_controlled_table()
    circuit = tuple(tuple(g) for g in circuit)
    channel = [list(h) for h in circuit]
    data_wires = n_a + n_b
    for g in circuit:
        if g[0] not in UNIVERSAL_GATES:
            raise ValueError(
                f"gate {g[0]!r} of channel {channel!r} is outside the "
                f"universal set {list(UNIVERSAL_GATES)!r}")
        arity = 2 if g[0] == "CNOT" else 1
        wires = set(g[1:])
        if len(g) - 1 != arity or len(wires) != arity \
                or not all(0 <= q < data_wires for q in wires):
            raise ValueError(
                f"gate {list(g)!r} of channel {channel!r} needs {arity} "
                f"distinct wire(s) below n_a + n_b = {data_wires}")
    uses_helper = any(g[0] == "T" for g in circuit)
    helper = data_wires if uses_helper else None
    control = data_wires + (1 if uses_helper else 0)
    controlled = []
    for g in circuit:
        controlled.extend(controlled_gate(g, control, helper))
    steps, num_rounds = build_schedule(controlled)
    return CompiledProgram(
        base_circuit=circuit, n_a=n_a, n_b=n_b, uses_t_helper=uses_helper,
        controlled_circuit=tuple(controlled), steps=tuple(steps),
        num_rounds=num_rounds, has_t=any(g[0] == "T" for g in controlled))


# ---------------------------------------------------------------------------
# Bell measurements
# ---------------------------------------------------------------------------

def bell_measure(state, pairs, rng, sink=None) -> tuple[int, int]:
    """Bell rotation + computational measurement on the (d, q) qubit pairs
    of the iterable ``pairs``, outcomes drawn from ``rng``, as one block
    call of the state (``BlockCalls.bell_measure``): one pair after the
    other, the next asked for only once the previous one is measured, then
    the measured pairs dropped.  ``sink`` receives each probability.

    Returns (x_mask, z_mask), bit j for pair j: the teleport correction
    Pauli X^x Z^z, with the convention that the receiving half ends in
    X^x Z^z |psi> for a plain EPR resource.
    """
    bits = state.bell_measure(pairs, rng, sink)
    return (sum(b << j for j, b in enumerate(bits[1::2])),
            sum(b << j for j, b in enumerate(bits[::2])))


# ---------------------------------------------------------------------------
# the reactive verifier behind the BR-OTP
# ---------------------------------------------------------------------------

def record_to_bytes(bits) -> bytes:
    mask = sum((b & 1) << i for i, b in enumerate(bits))
    return len(bits).to_bytes(2, "little") + mask.to_bytes(
        (len(bits) + 7) // 8, "little")


def bytes_to_record(data: bytes) -> list[int]:
    """The bits ``record_to_bytes`` wrote. Any other payload (short, long,
    or with a mask bit at or above the count) gives [], a record of no
    round's length, which the round takes as cheating."""
    n = int.from_bytes(data[:2], "little")
    mask = int.from_bytes(data[2:], "little")
    if len(data) != 2 + (n + 7) // 8 or mask >> n:
        return []
    return [(mask >> i) & 1 for i in range(n)]


class QotpVerifier(VerifierState):
    """The classical brain behind the reactive one-time program.

    The verifier's half of the gadgets (``VerifierState``) over the
    program's schedule, plus what the one-time program adds: the
    teleport-in key update, and the final decryption keys (or junk keys on
    cheating).
    """

    def __init__(self, program: CompiledProgram, trap: TrapCode,
                 keys: dict[str, PauliOperator],
                 output_keys: list[PauliOperator], reject_key_seed: int):
        super().__init__(trap, keys, program.steps, data_registers(program))
        self.program = program
        self.output_keys = list(output_keys)
        self.reject_key_seed = reject_key_seed

    @property
    def audit(self) -> "QotpVerifier":
        """The live verifier: this one, as the direct transport."""
        return self

    def copy(self) -> "QotpVerifier":
        """An independent verifier at the same point of the schedule."""
        nv = QotpVerifier.__new__(QotpVerifier)
        nv.__dict__.update(self.__dict__)
        nv.keys = dict(self.keys)
        return nv

    def receive_t_in(self, labels: list[str]) -> None:
        """Apply the receiver's teleport-in corrections to the input keys.
        A report that is not a list of exactly one of the four key labels
        (``_KEY_LABELS``) per B wire marks the run as cheating and applies
        nothing."""
        if (type(labels) is not list or len(labels) != self.program.n_b
                or not all(type(label) is str and label in _KEY_BITS
                           for label in labels)):
            self.cheated = True
            return
        for i, label in enumerate(labels):
            bits = _KEY_BITS[label]
            reg = self.data[self.program.n_a + i]
            if bits & 1:
                self.update_pauli_gate(reg, "X")
            if bits & 2:
                self.update_pauli_gate(reg, "Z")

    def finalize(self, t_out: list[tuple[int, int]]) -> tuple[list[str], bool]:
        """Final decryption keys for B_out, or uniform bits on cheating.

        The verdict and the keys of one run; an exact enumeration decides
        the verdict once per branch and reads each leaf's keys with
        ``final_keys``.  A ``t_out`` that is not one correction per B wire,
        each a pair of int masks in [0, 2^3n), is cheating."""
        if not self._well_formed(t_out):
            self.cheated = True
        if self.verdict():
            gen = rngmod.stream(self.reject_key_seed, "reject-key")
            labels = [p.to_label()
                      for p in random_paulis(1, gen, self.program.n_b)]
            return labels, True
        return [_KEY_LABELS[self.final_keys(t_out, i)]
                for i in range(self.program.n_b)], False

    def _well_formed(self, t_out) -> bool:
        limit = 1 << self.trap.n
        return (type(t_out) is list and len(t_out) == self.program.n_b
                and all(type(t) in (list, tuple) and len(t) == 2
                        and all(type(m) is int and 0 <= m < limit for m in t)
                        for t in t_out))

    def final_keys(self, t_out, i: int):
        """Key bits x | z << 1 of output wire ``i``: the logical Pauli that
        the pad, the teleport-out correction ``t_out[i]`` and the register's
        key leave on the data wire after decoding (``TrapCode.data_key``,
        which is linear: the pad and key part is read once).  The masks
        are ints (one run) or int64 arrays over a stacked leaf's outcomes,
        and so is the result."""
        xm, zm = t_out[i]
        pad = self.output_keys[i]
        key = self.keys[self.data[self.program.n_a + i]]
        return (self.trap.data_key(pad.x ^ key.x, pad.z ^ key.z)
                ^ self.trap.data_key(xm, zm))


# one-qubit key labels by their bits x | z << 1, and back
_KEY_LABELS = [PauliOperator.from_masks(1, k & 1, k >> 1).to_label()
               for k in range(4)]
_KEY_BITS = {label: k for k, label in enumerate(_KEY_LABELS)}


def data_registers(program: CompiledProgram) -> list[str]:
    """The register holding each wire of the controlled circuit."""
    return ([f"At{i}" for i in range(program.n_a)]
            + [f"Bt{i}" for i in range(program.n_b)]
            + (["Et0"] if program.uses_t_helper else []) + ["Ctl"])


# ---------------------------------------------------------------------------
# the real reactive transport (the direct one is the ``QotpVerifier`` itself)
# ---------------------------------------------------------------------------

class BrotpOracle:
    """The verifier wrapped into the reactive one-time program transport,
    answering under the verifier's method names.

    Round payloads are byte strings; the verifier state is carried between
    rounds as the program's authenticated-encrypted internal state (it is
    re-serialized every round, exactly as the chained construction demands).
    ``audit`` is the verifier the last round restored.
    """

    def __init__(self, verifier: QotpVerifier, kappa: int, rng):
        self.audit = verifier
        names = sorted(verifier.keys)
        state0 = _serialize_verifier(verifier, names)

        def restore(blob: bytes) -> QotpVerifier:
            self.audit = _deserialize_verifier(
                blob, names, verifier.program, verifier.trap,
                verifier.output_keys, verifier.reject_key_seed)
            return self.audit

        def g_first(a_state, b1):
            v = restore(a_state)
            v.receive_t_in(_decode_report(b1))
            return b"", _serialize_verifier(v, names)

        def g_round(b_i, s_prev):
            v = restore(s_prev)
            reply = v.process_round(bytes_to_record(b_i))
            return bytes(reply), _serialize_verifier(v, names)

        def g_final(b_last, s_prev):
            v = restore(s_prev)
            labels, cheated = v.finalize(_decode_report(b_last))
            return json.dumps(labels).encode(), b""

        program = verifier.program
        rounds = [g_first] + [g_round] * program.num_rounds + [g_final]
        self.program = brotp_compile(rounds, state0, kappa, len(state0), rng)
        self.carried = b""
        self.cursor = 1

    def _query(self, payload: bytes) -> bytes:
        res = brotp_query(self.program, self.cursor, payload, self.carried)
        if res is None:
            raise RuntimeError("reactive program aborted")
        m, self.carried = res
        self.cursor += 1
        return m

    def receive_t_in(self, labels: list[str]) -> None:
        self._query(json.dumps(labels).encode())

    def process_round(self, record: list[int]) -> list[int]:
        return list(self._query(record_to_bytes(record)))

    def finalize(self, t_out) -> tuple[list[str], bool]:
        reply = self._query(json.dumps(t_out).encode())
        labels = json.loads(reply.decode())
        return labels, self.audit.cheated


def _decode_report(payload: bytes):
    """A receiver's JSON report, or None (a malformed report) when it does
    not decode."""
    try:
        return json.loads(payload.decode())
    except (ValueError, RecursionError):  # also UnicodeDecodeError
        return None


def _serialize_verifier(v: QotpVerifier, names: list[str]) -> bytes:
    """The verifier's carried state, one fixed length for the sorted
    register ``names`` it started with (its keys are always a subset):
    ``pc`` (4 bytes), a flags byte (bit 0 ``cheated``; bits 1-2 ``need_k``:
    0 for None, 1 for False, 2 for True), a presence bitmap with bit j for
    ``names[j]``, then each name's key x and z as ceil(trap.n / 8)-byte
    words, zero when absent.  Integers are big-endian."""
    size = (v.trap.n + 7) // 8
    flags = v.cheated | (0 if v.need_k is None else 1 + v.need_k) << 1
    present = words = 0
    for j, name in enumerate(names):
        words <<= 16 * size
        p = v.keys.get(name)
        if p is not None:
            present |= 1 << j
            words |= p.x << 8 * size | p.z
    return (v.pc.to_bytes(4, "big") + bytes([flags])
            + present.to_bytes((len(names) + 7) // 8, "big")
            + words.to_bytes(2 * size * len(names), "big"))


def _deserialize_verifier(blob: bytes, names: list[str], program, trap,
                          output_keys, reject_seed) -> QotpVerifier:
    """The verifier ``_serialize_verifier`` wrote, its keys in ``names``
    order."""
    size = (trap.n + 7) // 8
    at = 5 + (len(names) + 7) // 8
    present = int.from_bytes(blob[5:at], "big")
    keys = {}
    for j, name in enumerate(names):
        if present >> j & 1:
            keys[name] = PauliOperator.from_masks(
                trap.n, int.from_bytes(blob[at:at + size], "big"),
                int.from_bytes(blob[at + size:at + 2 * size], "big"))
        at += 2 * size
    v = QotpVerifier(program, trap, keys, output_keys, reject_seed)
    v.pc = int.from_bytes(blob[:4], "big")
    v.cheated = bool(blob[4] & 1)
    v.need_k = (None, False, True)[blob[4] >> 1]
    return v


# ---------------------------------------------------------------------------
# adversaries (the environment's normal form, restricted to the callback
# family the experiments exercise: product Pauli attacks before the first
# round plus classical tampering of the measurement records)
# ---------------------------------------------------------------------------

class DummyAdversary:
    """The honest receiver: prepares its inputs (|0> unless ``b_labels``
    says otherwise), never deviates."""

    b_labels = ("0",)

    def __init__(self, b_labels=("0",)):
        self.b_labels = tuple(b_labels)

    def shape(self) -> tuple:
        """What decides the backend calls of a run against this adversary;
        the Pauli values it applies do not."""
        return type(self), self.b_labels

    def prepare_b_w(self, state):
        return [prepare_eigenstate(state, label)
                for label in self.b_labels], []

    def before(self, attack, state, w_ids):
        pass

    def tamper_record(self, index, bits):
        return bits


class PauliAttackAdversary(DummyAdversary):
    """Applies fixed Pauli attacks to named registers before the first
    round."""

    def __init__(self, initial_attacks=(), b_labels=("0",),
                 entangle_w=False):
        self.initial_attacks = list(initial_attacks)
        self.b_labels = tuple(b_labels)
        self.entangle_w = entangle_w

    def shape(self) -> tuple:
        return super().shape() + (self.entangle_w, tuple(
            reg for reg, _ in self.initial_attacks))

    def prepare_b_w(self, state):
        if not self.entangle_w:
            return super().prepare_b_w(state)
        return make_teleport_through(state, [], 1)

    def before(self, attack, state, w_ids):
        for reg, pauli in self.initial_attacks:
            attack(reg, pauli)


class WOnlyAdversary(DummyAdversary):
    """Touches only its private workspace qubit."""

    def prepare_b_w(self, state):
        b = state.append_qubits(1)
        w = state.append_qubits(1)
        return b, w

    def before(self, attack, state, w_ids):
        state.apply_gate("H", w_ids[0])
        state.apply_gate("K", w_ids[0])


# ---------------------------------------------------------------------------
# the protocol instance: registers, both worlds, one runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """A finished run: one sampled run, or the stacked leaf of one
    enumerated branch, whose ``t_out`` masks, ``s_hat`` key bits,
    ``weight`` and ``density`` are arrays over the branch's live
    teleport-out outcomes."""

    accepted: bool
    cheated: bool
    t_in: tuple
    records: tuple
    replies: tuple
    t_out: tuple          # (x mask, z mask) per B wire
    s_hat: tuple          # labels (stacked: key bits x | z << 1), or
                          # ("random",) when the key was junk
    weight: float         # probability of this run's outcomes
    b_out_qubits: list
    w_ids: list
    density: object       # enumerated leaves only: the densities of
                          # ``b_out_qubits + w_ids``, final key unapplied
    session: AuthSession | None  # sampled runs only: the live session, whose
                                 # state holds the output (final key
                                 # applied) and W qubits


# the state backend of each ``backend`` name
_BACKENDS = {"sv": StateVector, "tab": TableauState, "sum": StabilizerSum}


def pick_backend(program: CompiledProgram, base_code: CssCode,
                 backend: str, chosen_by: str | None = None) -> str:
    """The backend name a run of ``program`` uses for ``backend``:
    ``"auto"`` puts Clifford-only controlled circuits on the tableau, and
    T-bearing ones on the stabilizer sum, or the dense backend at toy
    scale.  ``"tab"`` with a T-bearing program raises ``ValueError``: the
    tableau cannot represent T-type magic states; the refusal names
    ``chosen_by`` (by default, the ``backend`` setting)."""
    if backend == "tab" and program.has_t:
        raise ValueError(
            f"channel {[list(g) for g in program.base_circuit]!r} needs "
            f"T-type magic states (the controlled H, K, T and CNOT hold T "
            f"gates), which {chosen_by or f'backend {backend!r}'} cannot "
            f"represent")
    if backend != "auto":
        return backend
    if not program.has_t:
        return "tab"
    return "sv" if base_code.n == 1 else "sum"


class QotpInstance:
    """One prepared one-time program plus the runner for its receiver."""

    def __init__(self, program: CompiledProgram, base_code: CssCode,
                 seed: int, world: str = "real", backend: str = "auto",
                 a_labels=(), transport: str = "direct", kappa: int = 16,
                 trap: TrapCode | None = None, pad_coset: str = "I"):
        backend = pick_backend(program, base_code, backend)
        self.program = program
        self.base_code = base_code
        self.world = world
        self.seed = seed
        key_rng = rngmod.stream(seed, "keys")
        self.trap = trap if trap is not None else \
            sample_trap_code(base_code, key_rng)
        n3 = self.trap.n
        data = data_registers(program)
        reg_names = data + [nm for _, names in magic_slots(program.steps)
                            for nm in names]
        paulis = random_paulis(n3, key_rng, len(reg_names) + program.n_b)
        keys = dict(zip(reg_names, paulis))
        self.output_keys = paulis[len(reg_names):]
        if pad_coset != "I":
            # the exact comparison's pad coset on the teleported input
            keys["Bt0"] = keys["Bt0"] * self.trap.logical_pauli(pad_coset)
        self.keys = keys
        self.backend_kind = backend
        self.session = AuthSession(self.trap, dict(keys),
                                   _BACKENDS[backend](0),
                                   rngmod.stream(seed, "outcomes"),
                                   program.steps, data)
        self.a_labels = tuple(a_labels)
        verifier = QotpVerifier(program, self.trap, dict(keys),
                                self.output_keys, seed)
        if transport == "direct":
            self.oracle = verifier
        else:
            self.oracle = BrotpOracle(verifier, kappa,
                                      rngmod.stream(seed, "brotp"))
        self._declare_registers()
        self.ideal_calls = 0

    # -- register declarations ------------------------------------------------
    def _declare_registers(self) -> None:
        ses = self.session
        prog = self.program
        trap = self.trap
        n3 = trap.n

        # sender input: real world authenticates the input labels; the
        # simulator authenticates dummy |0> states instead
        for i in range(prog.n_a):
            name = f"At{i}"
            label = "0" if self.world == "sim" else self.a_labels[i]
            ses.declare((name,), eigenstate_preparer(name, label))
        # the controlled-T helper and the control
        if prog.uses_t_helper:
            ses.declare(("Et0",), eigenstate_preparer("Et0", "0"))
        ctl_label = "0" if self.world == "sim" else "1"
        ses.declare(("Ctl",), eigenstate_preparer("Ctl", ctl_label))

        def epr_pair(first, second, authenticate):
            """Declare an EPR pair: ``first`` holds one half, ``second`` the
            other, authenticated into a register when ``authenticate``."""
            def prep(session):
                a, b = make_teleport_through(session.state, [], 1)
                session.adopt(first, a)
                if authenticate:
                    authenticate_into(session, second, b[0])
                else:
                    session.adopt(second, b)

            ses.declare((first, second), prep)

        # teleport-through-authentication halves
        for i in range(prog.n_b):
            bare = f"Bin{i}" if self.world == "real" else f"Sout{i}"
            epr_pair(bare, f"Bt{i}", True)
        if self.world == "sim":
            for i in range(prog.n_b):
                epr_pair(f"Bin{i}", f"Sin{i}", False)
        # de-authentication resource
        output_keys = self.output_keys
        for i in range(prog.n_b):
            name, out = f"BoutR{i}", f"Bout{i}"

            def prep(session, i=i, name=name, out=out):
                st = session.state
                in_ids, tmp_ids = make_teleport_through(st, [], n3, trap)
                st.apply_pauli(output_keys[i], tmp_ids)
                st.apply_gates(trap.decoding_ops(tmp_ids))
                session.adopt(name, in_ids)
                session.adopt(out, [tmp_ids[trap.data_position()]])

            ses.declare((name, out), prep)
        ses.declare_magic()

    # -- cloning (no run calls it; ``perfbench``'s tracer wraps it) -----------
    def clone(self, state) -> "QotpInstance":
        """This instance continued on ``state``, with its own register
        table."""
        inst = QotpInstance.__new__(QotpInstance)
        inst.__dict__.update(self.__dict__)
        inst.session = self.session.clone(state)
        return inst

    # -- the run ---------------------------------------------------------------
    def run(self, adversary) -> RunResult:
        """One execution, each outcome Born-sampled from the outcome stream.

        On the tableau, runs of one shape (base code, world, sender labels
        and ``adversary.shape()``) on one program share a reference: the
        first runs on a plain ``TableauState``, the second records the
        reference (``backends.frame.Recorder``), and every later one
        replays it through a Pauli frame (``backends.frame.FrameReplay``),
        with the same results."""
        ses = self.session
        recorder = None
        if self.backend_kind == "tab" and ses.state.n == 0:
            seen = self.program.replays.setdefault(
                (self.base_code, self.world, self.a_labels, adversary.shape()),
                [0, None])
            seen[0] += 1
            if seen[1] is not None or seen[0] == 2:
                # loaded here, so that a command that never replays does
                # not load it
                from .backends import frame
                if seen[1] is not None:
                    ses.state = frame.FrameReplay(seen[1])
                else:
                    ses.state = recorder = frame.Recorder()
        result = next(_walk(self, adversary, _Sample()))
        if recorder is not None:
            seen[1] = recorder.finish()
        return result


# ---------------------------------------------------------------------------
# high-level entry points
# ---------------------------------------------------------------------------

def honest_receiver_run(program: CompiledProgram, base_code: CssCode,
                        seed: int, a_labels=(), b_labels=("0",),
                        backend: str = "auto", transport: str = "brotp",
                        kappa: int = 16):
    """Prepare the compiled ``program`` (``compile_controlled_program``)
    and honestly evaluate it once.

    Returns (result, instance); the output state sits on
    ``result.b_out_qubits`` of ``result.session.state``.
    """
    inst = QotpInstance(program, base_code, seed, world="real",
                        backend=backend, a_labels=a_labels,
                        transport=transport, kappa=kappa)
    return inst.run(DummyAdversary(b_labels)), inst


# ---------------------------------------------------------------------------
# the receiver's round-schedule walk and its two measurement strategies
# ---------------------------------------------------------------------------

@dataclass
class _Branch:
    """One branch of the walk: its verifier and its transcript.  A sampled
    run is one branch; an enumerated stack holds one per row of its
    state."""

    oracle: object
    t_in: tuple = ()
    records: tuple = ()
    replies: tuple = ()


class _Sample:
    """One branch per measurement: each qubit's outcome is Born-sampled from
    the session's outcome stream.  A Bell pair is rotated and measured
    before the next pair is touched."""

    def pairs(self, inst, branches, pairs):
        ses = inst.session
        return branches, [bell_measure(ses.state, pairs, ses.rng, ses._weigh)]

    def registers(self, inst, branches, names):
        bits = []
        for name in names:
            bits += inst.session.measure_register(name)
        return branches, [bits]

    def correct(self, inst, rows, pauli, qubits):
        inst.session.state.apply_pauli(pauli, qubits)

    def leaves(self, inst, branches, pairs, keep):
        _, (masks,) = self.pairs(inst, branches, pairs)
        yield branches[0], masks, inst.session.prob_weight, None


# the lightest branch the exact enumeration keeps
MIN_BRANCH_WEIGHT = 1e-15


@functools.cache
def _fan_masks(n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The x masks and the z masks of every joint outcome of ``n_pairs``
    rotated Bell pairs, as two int64 arrays indexed by the outcome, each
    pair measured as (z bit, x bit), first bit most significant."""
    k = np.arange(1 << (2 * n_pairs), dtype=np.int64)
    top = 2 * n_pairs - 1
    xm = np.zeros_like(k)
    zm = np.zeros_like(k)
    for j in range(n_pairs):
        zm |= (k >> (top - 2 * j) & 1) << j
        xm |= (k >> (top - 2 * j - 1) & 1) << j
    xm.flags.writeable = zm.flags.writeable = False
    return xm, zm


class _Fan:
    """One branch per joint outcome of weight at least
    ``MIN_BRANCH_WEIGHT``, read from the dense state.  The live branches
    of an instance are the rows of one stacked state, weighted by the
    session's ``prob_weight`` array: a gate runs once per stack, and a fork
    gathers every live outcome's posterior into the next stack, row-major.
    Every Bell pair is rotated before the joint outcomes are read.

    Teleport-out is one stacked leaf per branch: one stacked read of the
    rotated state gives every row's live outcomes' probabilities and
    densities on the kept qubits, as arrays over those outcomes."""

    def pairs(self, inst, branches, pairs):
        ids = self._rotate(inst, pairs)
        xs, zs = _fan_masks(len(ids) // 2)
        branches, ks = self._fork(inst, branches, ids)
        return branches, [(int(xs[k]), int(zs[k])) for k in ks]

    def registers(self, inst, branches, names):
        ids = []
        for name in names:
            ids += inst.session.consume(name)
        top = len(ids) - 1
        branches, ks = self._fork(inst, branches, ids)
        return branches, [[(k >> (top - i)) & 1 for i in range(len(ids))]
                          for k in ks]

    def correct(self, inst, rows, pauli, qubits):
        inst.session.state.apply_pauli(pauli, qubits, rows)

    def leaves(self, inst, branches, pairs, keep):
        ids = self._rotate(inst, pairs)
        xs, zs = _fan_masks(len(ids) // 2)
        live, probs, rhos = inst.session.state.joint_densities(ids, keep)
        rows, ks = np.divmod(live, len(xs))
        ends = np.searchsorted(rows, np.arange(len(branches) + 1))
        for r, branch in enumerate(branches):
            at = slice(ends[r], ends[r + 1])
            yield (branch, (xs[ks[at]], zs[ks[at]]),
                   inst.session.prob_weight[r] * probs[at], rhos[at])

    @staticmethod
    def _fork(inst, branches, ids):
        ses = inst.session
        live, ses.prob_weight, ses.state = ses.state.fork(
            ids, ses.prob_weight, MIN_BRANCH_WEIGHT)
        rows, ks = np.divmod(live, 1 << len(ids))
        ks = ks.tolist()
        return [replace(branches[r], oracle=branches[r].oracle.copy())
                for r in rows.tolist()], ks

    @staticmethod
    def _rotate(inst, pairs) -> list:
        state = inst.session.state
        ids = []
        for d, q in pairs:
            state.apply_gate("CNOT", d, q)
            state.apply_gate("H", d)
            ids += [d, q]
        return ids


def _walk(inst: QotpInstance, adversary, strategy):
    """Run the receiver's side of the protocol on ``inst``, yielding one
    RunResult per finished branch.

    Straight-line code over one stack: teleport-in, the simulator's splice
    of the one ideal call, the gadget rounds (each asked of the session's
    ``next_round``) and teleport-out.  Every measurement goes to
    ``strategy``, which returns the branches that go on and each one's
    outcome: (x mask, z mask) for Bell pairs, bit j of each mask for pair
    j, and a bit list for registers.  A leaf with a density (enumerated) is
    decided by its branch's verdict and reads every outcome's keys at once
    with ``QotpVerifier.final_keys``, drawing no junk key when rejected; a
    sampled one is finalized, and its final key applied.
    """
    prog = inst.program
    ses = inst.session
    b_ids, w_ids = adversary.prepare_b_w(ses.state)
    if len(b_ids) != prog.n_b:
        raise ValueError("adversary must supply one qubit per B wire")
    if inst.world == "sim":
        a_ids = [prepare_eigenstate(ses.state, label)
                 for label in inst.a_labels]
    adversary.before(ses.attack, ses.state, w_ids)

    def labels(masks) -> list[str]:
        xm, zm = masks
        return [_KEY_LABELS[(xm >> i & 1) | (zm >> i & 1) << 1]
                for i in range(prog.n_b)]

    # each generator consumes a wire's registers only when its pair is due
    branches, outcomes = strategy.pairs(inst, [_Branch(inst.oracle)], (
        (b_ids[i], ses.consume(f"Bin{i}")[0]) for i in range(prog.n_b)))
    for b, masks in zip(branches, outcomes):
        b.t_in = tuple(labels(masks))
    if inst.world == "real":
        for b in branches:
            b.oracle.receive_t_in(list(b.t_in))
    else:
        # simulator: apply each branch's reported Pauli to S_in, call the
        # ideal channel once, then teleport its output through the
        # authentication
        for i in range(prog.n_b):
            ids = ses.materialize(f"Sin{i}").ids
            for label in sorted({b.t_in[i] for b in branches}):
                strategy.correct(inst, [r for r, b in enumerate(branches)
                                        if b.t_in[i] == label],
                                 PauliOperator.from_label(label), ids)
        inst.ideal_calls += 1
        if inst.ideal_calls > 1:
            raise RuntimeError("ideal functionality is one-shot")
        wires = a_ids + [ses.registers[f"Sin{i}"].ids[0]
                         for i in range(prog.n_b)]
        for g in prog.base_circuit:
            ses.state.apply_gate(g[0], *[wires[w] for w in g[1:]])
        branches, outcomes = strategy.pairs(inst, branches, (
            (ses.consume(f"Sin{i}")[0], ses.consume(f"Sout{i}")[0])
            for i in range(prog.n_b)))
        for b, splice in zip(branches, outcomes):
            b.oracle.receive_t_in(labels(splice))
    # the gadget rounds.  Only a T correction reads the verifier's reply,
    # and a T-bearing program runs only sampled, as one branch.
    reply = None
    while (todo := ses.next_round(reply)) is not None:
        measured, takeover = todo
        branches, outcomes = strategy.registers(inst, branches, measured)
        if takeover is not None:
            ses.take_over(*takeover)
        for b, bits in zip(branches, outcomes):
            bits = adversary.tamper_record(len(b.records), list(bits))
            reply = b.oracle.process_round(bits)
            b.records += (tuple(bits),)
            b.replies += (tuple(reply),)
    # teleport-out; the de-authentication resource is outcome-independent
    for i in range(prog.n_b):
        ses.materialize(f"BoutR{i}")
    b_out = [ses.registers[f"Bout{i}"].ids[0] for i in range(prog.n_b)]
    pairs = (pair for i in range(prog.n_b) for pair in zip(
        ses.consume(f"Bt{i}"), ses.consume(f"BoutR{i}")))
    n3 = inst.trap.n
    wire_mask = (1 << n3) - 1
    for b, (xm, zm), weight, density in strategy.leaves(
            inst, branches, pairs, b_out + list(w_ids)):
        t_out = [(xm >> n3 * i & wire_mask, zm >> n3 * i & wire_mask)
                 for i in range(prog.n_b)]
        sampled = density is None
        if sampled:
            s_hat, cheated = b.oracle.finalize(t_out)
        else:
            cheated = b.oracle.verdict()
            s_hat = None if cheated else [
                b.oracle.final_keys(t_out, i) for i in range(prog.n_b)]
        s_out = ("random",) if cheated else tuple(s_hat)
        if sampled and not cheated:
            for q, label in zip(b_out, s_hat):
                ses.state.apply_pauli(PauliOperator.from_label(label), [q])
        yield RunResult(
            not cheated, cheated, b.t_in, b.records, b.replies,
            tuple(t_out), s_out, weight, b_out, list(w_ids), density,
            ses if sampled else None)


# ---------------------------------------------------------------------------
# exact enumeration and the real-vs-simulated comparison
# ---------------------------------------------------------------------------

def enumerate_protocol_runs(inst: QotpInstance,
                            adversary) -> list[RunResult]:
    """All outcome branches of one protocol instance, exactly.

    The same walk as ``QotpInstance.run``, with every measurement fanned
    out over the joint outcome distribution of the dense state instead of
    sampled.  The branches run as the rows of one stack from teleport-in
    to teleport-out, and the leaves come in depth-first order of their
    outcomes, the row order of every fork.  Each branch ends in one
    stacked leaf, which carries every live teleport-out outcome's density
    of the output and W qubits before the final key (``RunResult.density``).

    Requires the direct oracle transport and the dense backend, and
    refuses a program with a T gate before any gate runs: the T
    correction round reads the verifier's reply, and the smallest such
    program (controlled K) has 7 rounds of 3-bit records on the toy code,
    millions of branches.
    """
    if inst.program.has_t:
        raise ValueError("the controlled circuit holds T gates: its runs "
                         "have too many branches to enumerate")
    if inst.backend_kind != "sv":
        raise ValueError("only dense-backend instances are enumerable, "
                         f"got backend {inst.backend_kind!r}")
    if not isinstance(inst.oracle, QotpVerifier):
        raise ValueError("only direct-transport instances are enumerable")
    inst.session.prob_weight = np.ones(1)  # the weight of each row
    return list(_walk(inst, adversary, _Fan()))


def _world_density_map(world: str, program: CompiledProgram,
                       base_code: CssCode, seed: int, adversary_factory,
                       a_labels, perms, coset_letters):
    """Exact classical-quantum output ensemble of one world.

    Returns {(t_in, records, replies): accumulated weighted densities on
    (B_out, W)}, one array per transcript prefix indexed [teleport-out
    outcome, final-key slot].  The outcome index packs each output wire's
    correction (x mask, z mask).  An accepted run's keys fill slots
    0..4^n_b - 1 (key bits x | z << 1 per wire); a rejected run, whose final
    key is uniform junk that the enumeration therefore never draws, adds
    its density at weight 1/4^n_b into each of the slots after those, so
    the view also holds the verdict.  The ensemble enumerates the shared permutation key, the one-time-pad coset
    representative on the teleported-input register, and every measurement
    branch, and each stacked leaf adds a whole branch's outcomes at once.
    """
    out: dict = {}
    weight_scale = 1.0 / (len(perms) * len(coset_letters))
    n3 = 3 * base_code.n
    n_keys = 4 ** program.n_b
    for perm in perms:
        trap = TrapCode(base_code, perm)
        for letter in coset_letters:
            inst = QotpInstance(
                program, base_code, seed, world=world, backend="sv",
                a_labels=a_labels, transport="direct", trap=trap,
                pad_coset=letter)
            for leaf in enumerate_protocol_runs(inst, adversary_factory()):
                prefix = (leaf.t_in, leaf.records, leaf.replies)
                acc = out.get(prefix)
                if acc is None:
                    acc = out[prefix] = np.zeros(
                        (1 << 2 * n3 * program.n_b, 2 * n_keys)
                        + leaf.density.shape[1:], dtype=complex)
                outcome = 0
                for i, (xm, zm) in enumerate(leaf.t_out):
                    outcome |= (xm << n3 | zm) << 2 * n3 * i
                w = (leaf.weight * weight_scale)[:, None, None]
                if leaf.cheated:
                    acc[outcome, n_keys:] += ((w / n_keys)
                                              * leaf.density)[:, None]
                else:
                    slot = 0
                    for i, bits in enumerate(leaf.s_hat):
                        slot |= bits.astype(np.int64) << 2 * i
                    acc[outcome, slot] += w * leaf.density
    return out


def compare_real_vs_sim(circuit, n_a: int, n_b: int, base_code: CssCode,
                        seed: int, adversary_factory, a_labels=()
                        ) -> tuple[float, tuple[float, float]]:
    """Exact trace distance between the environment's view of the real
    protocol and of the simulator, at toy scale with full enumeration, and
    each world's enumerated reject weight, (real, sim): the mass in the
    slots after the keys, which only the verifier's verdict fills."""
    from .paulis import Permutation
    from itertools import permutations as iperms

    program = compile_controlled_program(circuit, n_a, n_b)
    perms = [Permutation(3 * base_code.n, p)
             for p in iperms(range(3 * base_code.n))]
    coset_letters = ("I", "X", "Z", "Y")
    real = _world_density_map("real", program, base_code, seed,
                              adversary_factory, a_labels, perms,
                              coset_letters)
    sim = _world_density_map("sim", program, base_code, seed,
                             adversary_factory, a_labels, perms,
                             coset_letters)
    n_keys = 4 ** n_b
    rejected = tuple(
        sum(float(np.trace(acc[:, n_keys:], axis1=2, axis2=3).real.sum())
            for acc in world.values()) for world in (real, sim))
    total = 0.0
    for prefix in dict.fromkeys([*real, *sim]):
        diff = real.get(prefix, 0) - sim.get(prefix, 0)
        diff = diff.reshape((-1,) + diff.shape[2:])
        evals = np.linalg.eigvalsh(diff[np.any(diff != 0, axis=(1, 2))])
        for td in 0.5 * np.sum(np.abs(evals), axis=1):
            total += float(td)
    return total, rejected
