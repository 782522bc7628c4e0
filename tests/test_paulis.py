"""Pauli/Clifford algebra against brute-force dense-matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotp_lab import denseops as dn
from qotp_lab.paulis import CliffordUnitary, PauliOperator, Permutation


def paulis_2q():
    return list(dn.all_paulis(2))


def random_gates(n, count, rng):
    gates = []
    for _ in range(count):
        kind = rng.integers(0, 6)
        if kind == 5 and n >= 2:
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", int(c), int(t)))
        else:
            name = ["X", "Y", "Z", "H", "K"][int(kind) % 5]
            gates.append((name, int(rng.integers(0, n))))
    return tuple(gates)


class TestMultiply:
    def test_x_times_z_is_minus_i_y(self):
        x = PauliOperator.from_label("+X")
        z = PauliOperator.from_label("+Z")
        assert (x * z).to_label() == "-iY"

    def test_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = PauliOperator(3, int(rng.integers(0, 8)),
                              int(rng.integers(0, 8)), int(rng.integers(0, 4)))
            assert p * PauliOperator.identity(3) == p

    def test_two_qubit_products_match_dense(self):
        # (X tensor Z) . (Z tensor X) and friends, exhaustively.
        for a in paulis_2q():
            for b in paulis_2q():
                prod = a * b
                dense = dn.pauli_matrix(a) @ dn.pauli_matrix(b)
                assert np.allclose(dn.pauli_matrix(prod), dense, atol=1e-12)

    def test_associativity_and_square(self):
        ps = paulis_2q()
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = (ps[rng.integers(len(ps))] for _ in range(3))
            assert (a * b) * c == a * (b * c)
        for p in ps:
            sq = p * p
            assert sq.x == 0 and sq.z == 0 and sq.phase_exp in (0, 2)


def anticommute(a, b):
    """Whether ab = -ba, read off the package's exact product."""
    return (a * b).phase_exp != (b * a).phase_exp


class TestCommutationAndTranspose:
    def test_c_x_z(self):
        assert anticommute(PauliOperator.from_label("+X"),
                           PauliOperator.from_label("+Z"))

    def test_identity_commutes(self):
        for p in paulis_2q():
            assert not anticommute(p, PauliOperator.identity(2))

    def test_exhaustive_two_qubit(self):
        for a in paulis_2q():
            for b in paulis_2q():
                ma, mb = dn.pauli_matrix(a), dn.pauli_matrix(b)
                expected = not np.allclose(ma @ mb, mb @ ma)
                assert anticommute(a, b) == expected
                assert (a * b).phase_exp == \
                    ((b * a).phase_exp + 2 * expected) % 4

    def test_transpose_sign_small(self):
        my = dn.pauli_matrix(PauliOperator.from_label("+Y"))
        myy = dn.pauli_matrix(PauliOperator.from_label("+YY"))
        assert np.allclose(my.T, -my)
        assert np.allclose(myy.T, myy)

    def test_transpose_matches_dense_three_qubits(self):
        # P^T = (-1)^{#Y} P
        for p in dn.all_paulis(3):
            m = dn.pauli_matrix(p)
            assert np.allclose(m.T, (-1) ** p.y_count() * m, atol=1e-12)

    def test_transpose_multiplicative_over_tensor(self):
        # qubit 0 is the most significant tensor factor
        rng = np.random.default_rng(5)
        ps = paulis_2q()
        for _ in range(50):
            a, b = ps[rng.integers(len(ps))], ps[rng.integers(len(ps))]
            ab = PauliOperator.from_masks(4, a.x | b.x << 2, a.z | b.z << 2)
            assert np.allclose(dn.pauli_matrix(ab), np.kron(
                dn.pauli_matrix(a), dn.pauli_matrix(b)), atol=1e-12)
            assert ab.y_count() == a.y_count() + b.y_count()


class TestConjugation:
    def test_h_sends_x_to_z(self):
        h = CliffordUnitary(1, (("H", 0),))
        assert h.conjugate(PauliOperator.from_label("+X")).to_label() == "+Z"
        assert h.conjugate(PauliOperator.from_label("+Z")).to_label() == "+X"
        assert h.conjugate(PauliOperator.from_label("+Y")).to_label() == "-Y"

    def test_identity_clifford(self):
        ident = CliffordUnitary(2, ())
        for p in paulis_2q():
            assert ident.conjugate(p) == p

    def test_random_cliffords_match_dense(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            gates = random_gates(3, 8, rng)
            c = CliffordUnitary(3, gates)
            u = dn.circuit_matrix(3, gates)
            for _ in range(6):
                p = PauliOperator(3, int(rng.integers(0, 8)),
                                  int(rng.integers(0, 8)),
                                  int(rng.integers(0, 4)))
                got = dn.pauli_matrix(c.conjugate(p))
                want = u.conj().T @ dn.pauli_matrix(p) @ u
                assert np.allclose(got, want, atol=1e-10), (gates, p)

    def test_propagate_is_inverse_conjugation(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c = CliffordUnitary(3, random_gates(3, 10, rng))
            p = PauliOperator(3, int(rng.integers(0, 8)),
                              int(rng.integers(0, 8)), 0)
            assert c.conjugate(c.propagate(p)) == p
            assert c.inverse().conjugate(p) == c.propagate(p)

    def test_conjugation_group_action(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c1 = CliffordUnitary(2, random_gates(2, 6, rng))
            c2 = CliffordUnitary(2, random_gates(2, 6, rng))
            p = PauliOperator(2, int(rng.integers(0, 4)),
                              int(rng.integers(0, 4)), 0)
            lhs = c2.conjugate(c1.conjugate(p))
            # the circuit c2 then c1 is the operator c1 c2
            rhs = CliffordUnitary(2, c2.gates + c1.gates).conjugate(p)
            assert lhs == rhs

    def test_symplectic_map_preserves_form(self):
        # conjugation is symplectic: the images of the X_j and Z_j
        # generators keep their pairwise commutation
        rng = np.random.default_rng(19)
        c = CliffordUnitary(3, random_gates(3, 12, rng))
        gens = [PauliOperator.single(3, j, letter)
                for letter in "XZ" for j in range(3)]
        for a in gens:
            for b in gens:
                assert anticommute(c.conjugate(a), c.conjugate(b)) == \
                    anticommute(a, b)


class TestLabels:
    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        letters = data.draw(st.lists(st.sampled_from("IXYZ"),
                                     min_size=n, max_size=n))
        prefix = data.draw(st.sampled_from(["+", "-", "+i", "-i"]))
        label = prefix + "".join(letters)
        assert PauliOperator.from_label(label).to_label() == label

    def test_examples(self):
        assert PauliOperator.from_label("+XIZ").to_label() == "+XIZ"
        assert PauliOperator.from_label("-iYY").to_label() == "-iYY"


def reconstruct(n, coeffs):
    """sum alpha_Q Q, the oracle the decomposition is checked against."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for q, a in coeffs.items():
        out += a * dn.pauli_matrix(q)
    return out


class TestDecompose:
    def test_t_gate(self):
        coeffs = dn.pauli_decompose(dn.MT)
        ident = PauliOperator.identity(1)
        zop = PauliOperator.from_label("+Z")
        assert abs(abs(coeffs[ident]) ** 2 - np.cos(np.pi / 8) ** 2) < 1e-12
        assert abs(abs(coeffs[zop]) ** 2 - np.sin(np.pi / 8) ** 2) < 1e-12
        assert set(coeffs) == {ident, zop}

    def test_x_gate(self):
        coeffs = dn.pauli_decompose(dn.MX)
        assert set(coeffs) == {PauliOperator.from_label("+X")}
        assert abs(coeffs[PauliOperator.from_label("+X")] - 1) < 1e-14

    def test_round_trip_random_two_qubit(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            u = dn.random_unitary(2, rng)
            coeffs = dn.pauli_decompose(u)
            assert np.allclose(reconstruct(2, coeffs), u, atol=1e-12)
            total = sum(abs(a) ** 2 for a in coeffs.values())
            assert abs(total - 1) < 1e-12

    def test_round_trip_random_dense(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4):
            m = rng.normal(size=(1 << n, 1 << n)) + \
                1j * rng.normal(size=(1 << n, 1 << n))
            coeffs = dn.pauli_decompose(m)
            assert np.allclose(reconstruct(n, coeffs), m, atol=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            dn.pauli_decompose(np.eye(3))


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation(3, (0, 0, 2))
