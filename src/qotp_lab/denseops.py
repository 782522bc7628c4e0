"""Dense-matrix helpers for small systems.

These back ``pauli_decompose``, the build-time verification of the
controlled-gate table, and the brute-force oracles in the test suite.
Everything is limited to a handful of qubits by construction.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .paulis import PauliOperator

I2 = np.eye(2, dtype=complex)
MX = np.array([[0, 1], [1, 0]], dtype=complex)
MY = np.array([[0, -1j], [1j, 0]], dtype=complex)
MZ = np.array([[1, 0], [0, -1]], dtype=complex)
MH = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
MK = np.array([[1, 0], [0, 1j]], dtype=complex)          # |a> -> i^a |a>
MT = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

GATE_MATRICES = {"X": MX, "Y": MY, "Z": MZ, "H": MH, "K": MK, "T": MT}


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def single_qubit_on(n: int, qubit: int, m: np.ndarray) -> np.ndarray:
    return kron_all([m if j == qubit else I2 for j in range(n)])


def cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        cbit = (i >> (n - 1 - control)) & 1
        j = i ^ (cbit << (n - 1 - target))
        out[j, i] = 1.0
    return out


def gate_matrix(n: int, gate: tuple) -> np.ndarray:
    name = gate[0]
    if name == "CNOT":
        return cnot_matrix(n, gate[1], gate[2])
    return single_qubit_on(n, gate[1], GATE_MATRICES[name])


def circuit_matrix(n: int, gates) -> np.ndarray:
    """Dense unitary of a gate list (first gate acts first)."""
    out = np.eye(1 << n, dtype=complex)
    for g in gates:
        out = gate_matrix(n, g) @ out
    return out


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    mats = []
    for j in range(p.n):
        xb, zb = (p.x >> j) & 1, (p.z >> j) & 1
        m = I2
        if xb:
            m = MX
        if zb:
            m = m @ MZ if xb else MZ
        mats.append(m)
    return (1j ** p.phase_exp) * kron_all(mats)


def all_paulis(n: int):
    """All 4^n Hermitian 'letters' Paulis on n qubits."""
    for bits in product(range(4), repeat=n):
        x = z = 0
        for j, b in enumerate(bits):
            x |= (b & 1) << j
            z |= (b >> 1) << j
        yield PauliOperator.from_masks(n, x, z)


def pauli_decompose(m: np.ndarray) -> dict[PauliOperator, complex]:
    """Coefficients {alpha_Q} with m = sum alpha_Q Q, alpha_Q = tr(Q^dag m)/2^n.

    Sum of |alpha_Q|^2 equals tr(m^dag m)/2^n, so it is 1 for unitaries.
    """
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim or m.shape != (dim, dim):
        raise ValueError("dimension is not a power of two")
    if n > 6:
        raise ValueError("dense decomposition limited to 6 qubits")
    out = {}
    for q in all_paulis(n):
        mat = pauli_matrix(q)
        alpha = np.trace(mat.conj().T @ m) / dim
        if abs(alpha) > 1e-14:
            out[q] = complex(alpha)
    return out


def random_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_unitary(n: int, rng) -> np.ndarray:
    dim = 1 << n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(n: int, rng) -> np.ndarray:
    dim = 1 << n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def state_fidelity(vec: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(vec.conj() @ rho @ vec))
