"""Gadget soundness, key updates, forcing, and the magic-outcome identity."""

from itertools import product

import numpy as np
import pytest

from qotp_lab import denseops as dn
from qotp_lab.backends import StateVector, TableauState
from qotp_lab.css import build_steane, build_toy_code
from qotp_lab.gadgets import (EIGENSTATE_VECTORS, VerifierState,
                              build_schedule, make_gadget_session,
                              run_encoded_circuit)
from qotp_lab.paulis import PauliOperator

STEANE = build_steane()
TOY = build_toy_code()

GATE_MATRIX = {
    "X": dn.MX, "Y": dn.MY, "Z": dn.MZ, "H": dn.MH, "K": dn.MK, "T": dn.MT,
}


def run_single_gate(base, gate, label, backend_kind, seed):
    rng = np.random.default_rng(seed)
    circuit = [(gate, 0)]
    backend = TableauState(0) if backend_kind == "tab" else StateVector(0)
    session, verifier, data = make_gadget_session(
        base, circuit, [label], backend, rng)
    records, replies = run_encoded_circuit(session, verifier)
    ok, out = session.recover_register(data[0], verifier.keys[data[0]])
    # ok: the verifier accepted every gadget record and the final register
    return session, (records, replies), ok and not verifier.cheated, out


def recover_all(session, verifier, data):
    """(every register accepted, the data qubit ids)."""
    pairs = [session.recover_register(d, verifier.keys[d]) for d in data]
    return all(ok for ok, _ in pairs), [q for _, q in pairs]


class TestPauliGadgets:
    def test_pauli_gadget_is_empty_and_key_updates(self):
        for gate in ("X", "Y", "Z"):
            for label in ("0", "1", "+", "-", "+i", "-i"):
                session, (records, replies), ok, out = run_single_gate(
                    STEANE, gate, label, "tab", 7)
                assert ok
                assert records == [] and replies == []  # receiver did nothing
                want = GATE_MATRIX[gate] @ EIGENSTATE_VECTORS[label]
                rho = session.state.density_of([out])
                assert np.allclose(rho, np.outer(want, want.conj()),
                                   atol=1e-12), (gate, label)

    def test_trap_keys_untouched_by_pauli_update(self):
        rng = np.random.default_rng(3)
        session, verifier, data = make_gadget_session(
            STEANE, [("Z", 0)], ["0"], TableauState(0), rng)
        before = verifier.keys[data[0]]
        verifier.update_pauli_gate(data[0], "Z")
        after = verifier.keys[data[0]]
        trap = session.trap
        diff = before * after
        base_mask = sum(1 << p for p in trap.base_positions)
        assert (diff.x | diff.z) & ~base_mask == 0
        assert (after.z ^ before.z) == trap.embed_base_mask(0b1111111)
        assert after.x == before.x


class TestCnotGadget:
    def test_cnot_on_one_zero(self):
        rng = np.random.default_rng(5)
        session, verifier, data = make_gadget_session(
            STEANE, [("CNOT", 0, 1)], ["1", "0"], TableauState(0), rng)
        run_encoded_circuit(session, verifier)
        ok, qubits = recover_all(session, verifier, data)
        assert ok
        assert np.allclose(session.state.density_of(qubits),
                           np.diag([0, 0, 0, 1]), atol=1e-12)

    def test_cnot_key_update_rule(self):
        rng = np.random.default_rng(7)
        session, verifier, data = make_gadget_session(
            STEANE, [("CNOT", 0, 1)], ["0", "0"], TableauState(0), rng)
        p1 = verifier.keys[data[0]]
        p2 = verifier.keys[data[1]]
        verifier.update_cnot(data[0], data[1])
        q1 = verifier.keys[data[0]]
        q2 = verifier.keys[data[1]]
        assert q1.x == p1.x and q1.z == p1.z ^ p2.z
        assert q2.x == p2.x ^ p1.x and q2.z == p2.z

    def test_cnot_entangled_bell_output(self):
        rng = np.random.default_rng(9)
        session, verifier, data = make_gadget_session(
            STEANE, [("CNOT", 0, 1)], ["+", "0"], TableauState(0), rng)
        run_encoded_circuit(session, verifier)
        ok, qubits = recover_all(session, verifier, data)
        assert ok
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(session.state.density_of(qubits),
                           np.outer(bell, bell), atol=1e-12)


class TestMagicGadgets:
    @pytest.mark.parametrize("label", ["0", "1", "+", "-", "+i", "-i"])
    def test_k_gadget_steane(self, label):
        for seed in (11, 12, 13):
            session, (records, replies), ok, out = run_single_gate(
                STEANE, "K", label, "tab", seed)
            assert ok
            want = dn.MK @ EIGENSTATE_VECTORS[label]
            assert np.allclose(session.state.density_of([out]),
                               np.outer(want, want.conj()), atol=1e-12)
            # one one-way round: a 21-bit record, a one-bit reply
            assert [len(r) for r in records] == [21]
            assert replies[0] in ((0,), (1,))

    @pytest.mark.parametrize("label", ["0", "1", "+", "-", "+i", "-i"])
    def test_h_gadget_steane(self, label):
        for seed in (17, 18):
            session, transcript, ok, out = run_single_gate(
                STEANE, "H", label, "tab", seed)
            assert ok
            want = dn.MH @ EIGENSTATE_VECTORS[label]
            assert np.allclose(session.state.density_of([out]),
                               np.outer(want, want.conj()), atol=1e-12)

    @pytest.mark.parametrize("label", ["0", "1", "+", "-", "+i", "-i"])
    def test_t_gadget_toy_statevector(self, label):
        fidelities = []
        for seed in (19, 20, 21, 22):
            session, transcript, ok, out = run_single_gate(
                TOY, "T", label, "sv", seed)
            assert ok
            want = dn.MT @ EIGENSTATE_VECTORS[label]
            rho = session.state.density_of([out])
            fidelities.append(dn.state_fidelity(want, rho))
        assert min(fidelities) >= 1 - 1e-9

    def test_t_gadget_consumes_correction_magic_always(self):
        seen = set()
        for seed in range(30):
            session, (records, replies), ok, out = run_single_gate(
                TOY, "T", "+", "sv", 100 + seed)
            # the T round, then the K correction or the bare consume
            assert len(records) == len(replies) == 2
            seen.add(replies[0][0])
            for name, reg in session.registers.items():
                if name.startswith("M"):
                    assert reg.status == "consumed"
        assert seen == {0, 1}

    def test_statevector_drops_measured_registers(self):
        session, verifier, data = make_gadget_session(
            TOY, [("K", 0)], ["+"], StateVector(0), np.random.default_rng(61))
        run_encoded_circuit(session, verifier)
        # the data register was measured; only the former magic is left
        assert session.state.n == 3
        ok, out = session.recover_register(data[0], verifier.keys[data[0]])
        assert ok
        want = dn.MK @ EIGENSTATE_VECTORS["+"]
        assert np.allclose(session.state.density_of([out]),
                           np.outer(want, want.conj()), atol=1e-12)

    def test_t_gadget_steane_on_sum_backend(self):
        from qotp_lab.backends import StabilizerSum

        rng = np.random.default_rng(23)
        circuit = [("T", 0)]
        session, verifier, data = make_gadget_session(
            STEANE, circuit, ["+"], StabilizerSum(0), rng)
        run_encoded_circuit(session, verifier)
        ok, out = session.recover_register(data[0], verifier.keys[data[0]])
        assert ok
        want = dn.MT @ EIGENSTATE_VECTORS["+"]
        assert np.allclose(session.state.density_of([out]),
                           np.outer(want, want.conj()), atol=1e-9)


class TestAuthenticatedMeasure:
    def test_honest(self):
        rng = np.random.default_rng(29)
        session, verifier, data = make_gadget_session(
            STEANE, [], ["1"], TableauState(0), rng)
        bit = verifier.decode(data[0], session.measure_register(data[0]))
        assert not verifier.cheated and bit == 1

    def test_bit_flip_rejects(self):
        rng = np.random.default_rng(31)
        session, verifier, data = make_gadget_session(
            STEANE, [], ["0"], TableauState(0), rng)
        c = session.measure_register(data[0])
        c[5] ^= 1  # tamper with the classical record
        assert not verifier.cheated
        verifier.decode(data[0], c)
        assert verifier.cheated

    def test_z_paulis_never_disturb(self):
        rng = np.random.default_rng(37)
        for trial in range(20):
            session, verifier, data = make_gadget_session(
                STEANE, [], ["1"], TableauState(0), rng)
            zmask = int(rng.integers(0, 1 << 21))
            session.materialize(data[0])
            session.attack(data[0], PauliOperator.from_masks(21, 0, zmask))
            bit = verifier.decode(data[0], session.measure_register(data[0]))
            assert not verifier.cheated and bit == 1


class TestForcing:
    def test_logical_x_attack_on_magic_rejected(self):
        rng = np.random.default_rng(41)
        rejects = 0
        runs = 400
        for _ in range(runs):
            session, verifier, data = make_gadget_session(
                STEANE, [("K", 0)], ["0"], TableauState(0), rng)
            session.attack("M0", PauliOperator.from_masks(21, 0b111, 0))
            run_encoded_circuit(session, verifier)
            if verifier.cheated:
                rejects += 1
        assert rejects / runs >= 1 - (2 / 3) ** 1.5


class TestEncodedCircuits:
    def test_clifford_circuit_offline(self):
        rng = np.random.default_rng(43)
        circuit = [("H", 0), ("K", 0), ("CNOT", 0, 1), ("Z", 1)]
        session, verifier, data = make_gadget_session(
            STEANE, circuit, ["0", "0"], TableauState(0), rng)
        records, replies = run_encoded_circuit(session, verifier)
        # one one-way round each for H and K, no two-way T rounds
        assert [len(r) for r in replies] == [2, 1]
        ok, qubits = recover_all(session, verifier, data)
        assert ok
        u = dn.circuit_matrix(2, circuit)
        want = u @ np.eye(4, dtype=complex)[:, 0]
        assert np.allclose(session.state.density_of(qubits),
                           np.outer(want, want.conj()), atol=1e-12)

    def test_single_h_on_zero_is_plus(self):
        rng = np.random.default_rng(47)
        session, verifier, data = make_gadget_session(
            STEANE, [("H", 0)], ["0"], TableauState(0), rng)
        run_encoded_circuit(session, verifier)
        ok, out = session.recover_register(data[0], verifier.keys[data[0]])
        assert ok
        plus = EIGENSTATE_VECTORS["+"]
        assert np.allclose(session.state.density_of([out]),
                           np.outer(plus, plus.conj()), atol=1e-12)

    def test_inventory_mismatch(self):
        rng = np.random.default_rng(53)
        session, verifier, data = make_gadget_session(
            STEANE, [("K", 0)], ["0"], TableauState(0), rng)
        steps, _ = build_schedule([("T", 0)])
        t_verifier = VerifierState(session.trap, verifier.keys, steps, data)
        with pytest.raises(ValueError):
            run_encoded_circuit(session, t_verifier)

    def test_transcript_replayable(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(59)
            session, verifier, data = make_gadget_session(
                STEANE, [("K", 0)], ["+"], TableauState(0), rng)
            outs.append(run_encoded_circuit(session, verifier))
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the magic-state outcome identity at the logical level
# ---------------------------------------------------------------------------

K_MAGIC_VEC = np.array([1, 1j], dtype=complex) / np.sqrt(2)
T_MAGIC_VEC = np.array([1, np.exp(1j * np.pi / 4)], dtype=complex) / np.sqrt(2)
H_MAGIC_VEC = np.array([1, 1, 1, -1], dtype=complex) / 2

# The corrected branch of the T gadget reproduces T only up to a global
# e^{i pi/4}; fixing the correction Clifford's phase as e^{-i pi/4} KX makes
# the outcome identity hold with equality (corrections are projective, so
# nothing physical depends on this choice).
T_CORRECTION = np.exp(-1j * np.pi / 4) * (dn.MK @ dn.MX)


def _magic_gate_kinds(circuit):
    return [g[0] for g in circuit if g[0] in ("K", "T", "H")]


def outcome_bit_count(circuit):
    return sum(2 if k == "H" else 1 for k in _magic_gate_kinds(circuit))


def _logical_gadget_contraction(circuit, n_data, outcomes):
    """<outcomes| V_a |magic> as an operator on the data wires.

    Builds the deferred-measurement unitary for the gadget sequence: magic
    gadgets teleport the acted-on wire onto fresh magic qubits (a SWAP keeps
    the output on the original wire index) and nothing touches a measured
    qubit afterwards; the T correction is applied directly as the Clifford
    KX.  Corrections follow the projected outcome vector.
    """
    kinds = _magic_gate_kinds(circuit)
    widths = {"K": 1, "T": 1, "H": 2}
    total_magic = sum(widths[k] for k in kinds)
    magic_vecs = [{"K": K_MAGIC_VEC, "T": T_MAGIC_VEC,
                   "H": H_MAGIC_VEC}[k] for k in kinds]
    mu = np.array([1.0 + 0j])
    for v in magic_vecs:
        mu = np.kron(mu, v)
    n_total = n_data + total_magic
    state = np.einsum("ij,k->ikj", np.eye(1 << n_data, dtype=complex),
                      mu).reshape((1 << n_total, 1 << n_data))

    def apply(mat, wires):
        nonlocal state
        state = _embed(mat, wires, n_total) @ state

    # wire layout: data wires 0..n_data-1, magic wires follow in order
    next_magic = n_data
    out_iter = iter(outcomes)
    measured = []  # (wire, bit)
    for g in circuit:
        name = g[0]
        if name in ("X", "Y", "Z"):
            apply(GATE_MATRIX[name], [g[1]])
            continue
        if name == "CNOT":
            apply(dn.cnot_matrix(2, 0, 1), [g[1], g[2]])
            continue
        w = g[1]
        if name == "K":
            m = next_magic
            next_magic += 1
            apply(dn.cnot_matrix(2, 0, 1), [m, w])   # CNOT magic -> data
            _swap(apply, w, m)                       # output stays on wire w
            a = next(out_iter)
            measured.append((m, a))
            if a:
                apply(dn.MY, [w])
        elif name == "T":
            m = next_magic
            next_magic += 1
            apply(dn.cnot_matrix(2, 0, 1), [m, w])
            _swap(apply, w, m)
            a = next(out_iter)
            measured.append((m, a))
            if a:
                apply(T_CORRECTION, [w])              # phase-fixed KX
        elif name == "H":
            m1, m2 = next_magic, next_magic + 1
            next_magic += 2
            apply(dn.cnot_matrix(2, 0, 1), [w, m2])  # CNOT data -> pair
            apply(dn.MH, [w])
            _swap(apply, w, m1)                      # old data line now on m1
            a_x = next(out_iter)
            a_z = next(out_iter)
            measured.append((m1, a_x))
            measured.append((m2, a_z))
            if a_z:
                apply(dn.MZ, [w])
            if a_x:
                apply(dn.MX, [w])
    # project measured wires onto their outcomes, keep the rest on data wires
    arr = state.reshape((2,) * n_total + (1 << n_data,))
    for wire, bit in sorted(measured, reverse=True):
        arr = np.take(arr, bit, axis=wire)
    return arr.reshape((1 << n_data, 1 << n_data))


def _embed(mat, wires, n_total):
    k = len(wires)
    perm = list(wires) + [w for w in range(n_total) if w not in wires]
    big = np.kron(mat, np.eye(1 << (n_total - k), dtype=complex))
    big = big.reshape((2,) * (2 * n_total))
    inv = np.argsort(perm)
    axes = list(inv) + [n_total + p for p in inv]
    return big.transpose(axes).reshape((1 << n_total, 1 << n_total))


def _swap(apply, a, b):
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                     [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    apply(swap, [a, b])


class TestMagicOutcomeIdentity:
    """<a|V_a|mu> = 2^{-r/2} V for every outcome vector a, and the corrupted
    variant <a'|V_a|mu> = 2^{-r/2} V_{a-a'}."""

    @pytest.mark.parametrize("circuit,nd", [
        ([("K", 0)], 1),
        ([("T", 0)], 1),
        ([("H", 0)], 1),
        ([("K", 0), ("T", 0)], 1),
        ([("K", 0), ("CNOT", 0, 1), ("K", 1)], 2),
        ([("T", 0), ("H", 0), ("K", 0)], 1),
    ])
    def test_uniform_outcomes(self, circuit, nd):
        bits = outcome_bit_count(circuit)
        v = dn.circuit_matrix(nd, circuit)
        for a in product((0, 1), repeat=bits):
            got = _logical_gadget_contraction(circuit, nd, list(a))
            assert np.allclose(got, v / 2 ** (bits / 2), atol=1e-10), a

    @pytest.mark.parametrize("circuit,nd", [
        ([("K", 0)], 1),
        ([("T", 0)], 1),
        ([("K", 0), ("K", 0)], 1),
    ])
    def test_corrupted_outcomes_depend_on_difference(self, circuit, nd):
        kinds = _magic_gate_kinds(circuit)
        bits = len(kinds)  # only K/T single-bit gadgets here
        table = {}
        for a in product((0, 1), repeat=bits):
            for a_rep in product((0, 1), repeat=bits):
                got = _corrupted_contraction(circuit, nd, list(a), list(a_rep))
                got = got * 2 ** (bits / 2)
                # unitary, and a function of a xor a_rep only
                assert np.allclose(got @ got.conj().T, np.eye(1 << nd),
                                   atol=1e-9)
                key = tuple(x ^ y for x, y in zip(a, a_rep))
                if key in table:
                    assert np.allclose(table[key], got, atol=1e-10)
                else:
                    table[key] = got
        v = dn.circuit_matrix(nd, circuit)
        assert np.allclose(table[(0,) * bits], v, atol=1e-10)


def _corrupted_contraction(circuit, n_data, outcomes, reported):
    """Measurement gives ``outcomes`` but corrections follow ``reported``."""
    kinds = _magic_gate_kinds(circuit)
    magic_vecs = [{"K": K_MAGIC_VEC, "T": T_MAGIC_VEC}[k] for k in kinds]
    mu = np.array([1.0 + 0j])
    for vv in magic_vecs:
        mu = np.kron(mu, vv)
    n_total = n_data + len(kinds)
    state = np.einsum("ij,k->ikj", np.eye(1 << n_data, dtype=complex),
                      mu).reshape((1 << n_total, 1 << n_data))

    def apply(mat, wires):
        nonlocal state
        state = _embed(mat, wires, n_total) @ state

    next_magic = n_data
    oi, ri = iter(outcomes), iter(reported)
    measured = []
    for g, kind in zip([g for g in circuit if g[0] in ("K", "T")], kinds):
        w = g[1]
        m = next_magic
        next_magic += 1
        apply(dn.cnot_matrix(2, 0, 1), [m, w])
        _swap(apply, w, m)
        a_true, a_rep = next(oi), next(ri)
        measured.append((m, a_true))
        if a_rep:
            apply(dn.MY if kind == "K" else T_CORRECTION, [w])
    arr = state.reshape((2,) * n_total + (1 << n_data,))
    for wire, bit in sorted(measured, reverse=True):
        arr = np.take(arr, bit, axis=wire)
    return arr.reshape((1 << n_data, 1 << n_data))
