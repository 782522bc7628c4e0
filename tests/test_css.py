"""Steane/concatenated code checks against statevector and Hamming oracles."""

import numpy as np
import pytest

from qotp_lab import denseops as dn
from qotp_lab.backends import StateVector, TableauState
from qotp_lab.css import build_steane, build_toy_code, concatenate
from qotp_lab.gf2 import dot
from qotp_lab.paulis import PauliOperator


STEANE = build_steane()


def encode_statevector(code, logical_amps):
    sv = StateVector(code.n)
    amps = np.zeros(2, dtype=complex)
    amps[:] = logical_amps
    # write the data amplitude onto wire 0 manually
    full = np.zeros(1 << code.n, dtype=complex)
    full[0] = amps[0]
    full[1 << (code.n - 1)] = amps[1]  # wire 0 is the most significant bit
    sv._amps = full
    for g in code.encoder.gates:
        sv.apply_gate(*g)
    return sv


class TestSteane:
    def test_codewords(self):
        sv = encode_statevector(STEANE, [1, 0])
        vec = sv.amplitudes()
        support = {i for i in range(128) if abs(vec[i]) > 1e-12}
        # D(0): the rowspace of hx, with qubit 0 as the most significant bit
        words = set()
        for bits in range(8):
            w = 0
            for i, row in enumerate(STEANE.hx):
                if (bits >> i) & 1:
                    w ^= row
            idx = sum(((w >> j) & 1) << (6 - j) for j in range(7))
            words.add(idx)
        assert support == words
        assert np.allclose([abs(vec[i]) for i in support],
                           [1 / np.sqrt(8)] * 8)

    def test_stabilizer_eigenstate(self):
        sv = encode_statevector(STEANE, [1, 0])
        vec = sv.amplitudes()
        for row in STEANE.hx:
            p = PauliOperator.from_masks(7, row, 0)
            assert np.allclose(dn.pauli_matrix(p) @ vec, vec, atol=1e-12)
        for row in STEANE.hz:
            p = PauliOperator.from_masks(7, 0, row)
            assert np.allclose(dn.pauli_matrix(p) @ vec, vec, atol=1e-12)

    def test_logical_operators(self):
        zero = encode_statevector(STEANE, [1, 0]).amplitudes()
        one = encode_statevector(STEANE, [0, 1]).amplitudes()
        xbar = dn.pauli_matrix(STEANE.logical_x_pauli)
        zbar = dn.pauli_matrix(STEANE.logical_z_pauli)
        assert np.allclose(xbar @ zero, one, atol=1e-12)
        assert np.allclose(zbar @ zero, zero, atol=1e-12)
        assert np.allclose(zbar @ one, -one, atol=1e-12)

    def test_encoder_round_trip(self):
        rng = np.random.default_rng(3)
        a, b = dn.random_state(1, rng)
        sv = encode_statevector(STEANE, [a, b])
        inv = STEANE.encoder.inverse()
        for g in inv.gates:
            sv.apply_gate(*g)
        vec = sv.amplitudes()
        want = np.zeros(128, dtype=complex)
        want[0] = a
        want[64] = b
        assert np.allclose(vec, want, atol=1e-12)

    def test_encoder_built_once(self):
        code = build_steane()
        assert code.encoder is code.encoder
        assert code.encoder == STEANE.encoder

    def test_distance_exhaustive_weight_two(self):
        # no weight-1 or weight-2 Pauli is an undetected nontrivial logical
        for q in dn.all_paulis(2):
            if q.weight() == 0:
                continue
            for a, b in [(0, 1), (2, 5), (3, 6), (1, 4)]:
                full = PauliOperator.from_masks(
                    7, (q.x & 1) << a | (q.x >> 1) << b,
                    (q.z & 1) << a | (q.z >> 1) << b)
                cls = STEANE.logical_pauli_of(full)
                assert cls.kind != "logical", (q, pos)
        # exhaustive over all single-qubit Paulis on every position
        for j in range(7):
            for letter in "XYZ":
                cls = STEANE.logical_pauli_of(
                    PauliOperator.single(7, j, letter))
                assert cls.kind == "detected"

    def test_self_dual_bitwise_h(self):
        zero = encode_statevector(STEANE, [1, 0])
        for j in range(7):
            zero.apply_gate("H", j)
        plus = encode_statevector(STEANE, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(zero.amplitudes(), plus.amplitudes(), atol=1e-12)


class TestClassicalDecode:
    def test_all_zero(self):
        res = STEANE.classical_decode(0)
        assert res.logical_bit == 0 and res.error == 0

    def test_all_one(self):
        res = STEANE.classical_decode(0b1111111)
        assert res.logical_bit == 1 and res.error == 0

    def test_single_bit_flips(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = int(rng.integers(0, 16))
            word = 0
            rows = list(STEANE.hx) + [STEANE.logical_x]
            for i, row in enumerate(rows):
                if (bits >> i) & 1:
                    word ^= row
            a_true = bits >> 3 & 1
            assert STEANE.classical_decode(word).logical_bit == a_true
            j = int(rng.integers(0, 7))
            res = STEANE.classical_decode(word ^ (1 << j))
            assert res.logical_bit == a_true
            assert res.error == 1 << j

    def test_every_string_decodes(self):
        for c in range(128):
            res = STEANE.classical_decode(c)
            word = c ^ res.error
            # word must be a codeword of the right coset
            assert all(dot(r, word) == 0 for r in STEANE.hz)
            assert word.bit_count() % 2 == res.logical_bit


class TestLogicalPauliOf:
    def test_identity_trivial(self):
        cls = STEANE.logical_pauli_of(PauliOperator.identity(7))
        assert cls.kind == "trivial"

    def test_transversal_x(self):
        cls = STEANE.logical_pauli_of(PauliOperator.from_masks(7, 0b1111111, 0))
        assert cls.kind == "logical"
        assert cls.logical == PauliOperator.from_label("+X")
        assert not any(cls.syndrome_x) and not any(cls.syndrome_z)

    def test_single_x_detected(self):
        cls = STEANE.logical_pauli_of(PauliOperator.single(7, 0, "X"))
        assert cls.kind == "detected"
        assert any(cls.syndrome_x)
        assert not any(cls.syndrome_z)

    def test_stabilizer_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = int(rng.integers(0, 1 << 7))
            z = int(rng.integers(0, 1 << 7))
            q = PauliOperator.from_masks(7, x, z)
            cls1 = STEANE.logical_pauli_of(q)
            s = PauliOperator.from_masks(7, STEANE.hx[0], 0) * \
                PauliOperator.from_masks(7, 0, STEANE.hz[1])
            cls2 = STEANE.logical_pauli_of(q * s)
            assert cls1.kind == cls2.kind
            assert cls1.syndrome_x == cls2.syndrome_x
            assert cls1.syndrome_z == cls2.syndrome_z

    def test_exactly_one_branch(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = PauliOperator.from_masks(7, int(rng.integers(0, 128)),
                                         int(rng.integers(0, 128)))
            cls = STEANE.logical_pauli_of(q)
            if cls.kind == "detected":
                assert any(cls.syndrome_x) or any(cls.syndrome_z)
            else:
                assert not any(cls.syndrome_x) and not any(cls.syndrome_z)
                if cls.kind == "logical":
                    assert not cls.logical.is_identity()

    def test_induced_sign_exact(self):
        # -X^7 = product with an explicit sign survives into the logical
        q = PauliOperator(7, 0b1111111, 0, 2)
        cls = STEANE.logical_pauli_of(q)
        assert cls.logical == PauliOperator(1, 1, 0, 2)


class TestMeasureDecodeEquivalence:
    def test_joint_distribution(self):
        """Bitwise measure + classical decode == decode-then-measure, exactly.

        For random logical states and all Z-masks of weight <= 2: the joint
        distribution of (logical bit, accept) matches between (i) bitwise
        measurement of the masked codeword + classical decode and (ii)
        applying E^dagger, measuring data and X-syndrome wires, discarding
        the Z-syndrome wires.
        """
        rng = np.random.default_rng(11)
        masks = [0] + [1 << j for j in range(7)] + \
            [(1 << i) | (1 << j) for i in range(7) for j in range(i + 1, 7)]
        for trial in range(20):
            amp = dn.random_state(1, rng)
            base = encode_statevector(STEANE, amp).amplitudes()
            for zmask in masks:
                zop = dn.pauli_matrix(PauliOperator.from_masks(7, 0, zmask))
                vec = zop @ base
                # (i) measure-then-decode
                probs_i = {}
                for idx in range(128):
                    p = abs(vec[idx]) ** 2
                    if p < 1e-16:
                        continue
                    c = sum(((idx >> (6 - j)) & 1) << j for j in range(7))
                    res = STEANE.classical_decode(c)
                    key = (res.logical_bit, res.clean)
                    probs_i[key] = probs_i.get(key, 0.0) + p
                # (ii) decode-then-measure
                sv = StateVector(7)
                sv._amps = vec.copy()
                for g in STEANE.encoder.inverse().gates:
                    sv.apply_gate(*g)
                out = sv.amplitudes()
                probs_ii = {}
                _, sx_wires, _ = STEANE.encoder_wires()
                for idx in range(128):
                    p = abs(out[idx]) ** 2
                    if p < 1e-16:
                        continue
                    bits = [(idx >> (6 - j)) & 1 for j in range(7)]
                    a = bits[0]
                    accept = not any(bits[w] for w in sx_wires)
                    key = (a, accept)
                    probs_ii[key] = probs_ii.get(key, 0.0) + p
                for key in set(probs_i) | set(probs_ii):
                    assert abs(probs_i.get(key, 0) - probs_ii.get(key, 0)) \
                        < 1e-9, (zmask, key)


class TestConcatenate:
    def test_level_one_unchanged(self):
        assert concatenate(STEANE, 1) is STEANE

    def test_level_two_parameters(self):
        c2 = concatenate(STEANE, 2)
        assert c2.n == 49 and c2.d == 9
        assert len(c2.hx) == 24 and len(c2.hz) == 24
        assert c2.logical_x == (1 << 49) - 1

    def test_level_two_rejects_weight_two(self):
        c2 = concatenate(STEANE, 2)
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            i, j = rng.choice(49, size=2, replace=False)
            kinds = rng.integers(1, 4, size=2)
            x = z = 0
            for q, kind in ((i, kinds[0]), (j, kinds[1])):
                if kind & 1:
                    x |= 1 << q
                if kind & 2:
                    z |= 1 << q
            cls = c2.logical_pauli_of(PauliOperator.from_masks(49, x, z))
            assert cls.kind != "logical"

    def test_level_two_decode(self):
        c2 = concatenate(STEANE, 2)
        assert c2.classical_decode(0).logical_bit == 0
        ones = (1 << 49) - 1
        res = c2.classical_decode(ones)
        assert res.logical_bit == 1 and res.error == 0
        # single flip anywhere: same bit, nonzero error
        res = c2.classical_decode(ones ^ (1 << 17))
        assert res.logical_bit == 1 and res.error == 1 << 17

    def test_capability_bound(self):
        with pytest.raises(ValueError):
            concatenate(STEANE, 3)

    def test_encoder_tableau_eigenstate(self):
        c2 = concatenate(STEANE, 2)
        t = TableauState(49)
        for g in c2.encoder.gates:
            t.apply_gate(*g)
        rng = np.random.default_rng(17)
        # spot-check: decoding circuit maps back to |0> on data wire
        for g in c2.encoder.inverse().gates:
            t.apply_gate(*g)
        for w in range(49):
            bit, p = t.measure(w, rng=rng)
            assert bit == 0 and p == 1.0


class TestToyCode:
    def test_roundtrip(self):
        toy = build_toy_code()
        assert toy.classical_decode(1).logical_bit == 1
        cls = toy.logical_pauli_of(PauliOperator.from_label("+Y"))
        assert cls.kind == "logical"

    def test_steane_fields(self):
        steane = build_steane()
        rows = ["".join(str((r >> j) & 1) for j in range(steane.n))
                for r in steane.hx]
        assert rows == ["0001111", "0110011", "1010101"]
        assert steane.n == 7 and steane.d == 3
