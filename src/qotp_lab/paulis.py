"""Exact n-qubit Pauli and Clifford algebra in symplectic form.

A Pauli operator is stored as ``i**phase_exp * X**x * Z**z`` where ``x`` and
``z`` are bitmask integers (bit j = qubit j) and the X factors all stand to
the left of the Z factors.  The per-qubit letter Y is ``i*X*Z``, so a printed
label's sign prefix differs from ``phase_exp`` by the Y count.

Phases are tracked exactly through multiplication and Clifford conjugation;
key-update bookkeeping downstream relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LABEL_PHASE = {v: k for k, v in _PHASE_LABEL.items()}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

GATE_NAMES = ("X", "Y", "Z", "H", "K", "CNOT")


@dataclass(frozen=True)
class PauliOperator:
    """Immutable n-qubit Pauli with exact i^k phase."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit vector exceeds qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp & 3)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def identity(n: int) -> "PauliOperator":
        return PauliOperator(n, 0, 0, 0)

    @staticmethod
    def from_masks(n: int, x: int, z: int) -> "PauliOperator":
        """The Hermitian 'letters' Pauli with X/Z masks (phase i^{#Y})."""
        return PauliOperator(n, x, z, (x & z).bit_count())

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliOperator":
        xb, zb = _LETTER_BITS[letter]
        return PauliOperator(n, xb << qubit, zb << qubit,
                             1 if letter == "Y" else 0)

    @staticmethod
    def from_label(label: str) -> "PauliOperator":
        label = label.strip()
        prefix = "+"
        for p in ("+i", "-i", "+", "-"):
            if label.startswith(p):
                prefix, label = p, label[len(p):]
                break
        x = z = ycount = 0
        for j, ch in enumerate(label):
            xb, zb = _LETTER_BITS[ch]
            x |= xb << j
            z |= zb << j
            ycount += xb & zb
        return PauliOperator(len(label), x, z, _LABEL_PHASE[prefix] + ycount)

    # -- queries -----------------------------------------------------------
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase_exp == 0

    def to_label(self) -> str:
        disp = (self.phase_exp - self.y_count()) & 3
        letters = "".join(
            _BITS_LETTER[(self.x >> j) & 1, (self.z >> j) & 1]
            for j in range(self.n))
        return _PHASE_LABEL[disp] + letters

    # -- algebra -----------------------------------------------------------
    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError("size mismatch")
        phase = (self.phase_exp + other.phase_exp
                 + 2 * (self.z & other.x).bit_count())
        return PauliOperator(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def adjoint(self) -> "PauliOperator":
        # (i^p X^x Z^z)^dagger = i^{-p} Z^z X^x = i^{-p} (-1)^{|x&z|} X^x Z^z
        return PauliOperator(self.n, self.x, self.z,
                             -self.phase_exp + 2 * (self.x & self.z).bit_count())


# --------------------------------------------------------------------------
# Gate-level conjugation rules, exact phases.  conj rules give g^dag q g.
# --------------------------------------------------------------------------

def _conj_gate(gate: tuple, x: int, z: int, phase: int) -> tuple[int, int, int]:
    name = gate[0]
    if name == "H":
        q = gate[1]
        bx, bz = (x >> q) & 1, (z >> q) & 1
        if bx & bz:
            phase += 2
        x ^= (bx ^ bz) << q
        z ^= (bx ^ bz) << q
        return x, z, phase
    if name == "K":
        q = gate[1]
        if (x >> q) & 1:
            z ^= 1 << q
            phase += 3
        return x, z, phase
    if name == "X":
        q = gate[1]
        if (z >> q) & 1:
            phase += 2
        return x, z, phase
    if name == "Y":
        q = gate[1]
        if ((x >> q) ^ (z >> q)) & 1:
            phase += 2
        return x, z, phase
    if name == "Z":
        q = gate[1]
        if (x >> q) & 1:
            phase += 2
        return x, z, phase
    if name == "CNOT":
        c, t = gate[1], gate[2]
        if (x >> c) & 1:
            x ^= 1 << t
        if (z >> t) & 1:
            z ^= 1 << c
        return x, z, phase
    raise ValueError(f"unknown gate {name!r}")


def _prop_gate(gate: tuple, x: int, z: int, phase: int) -> tuple[int, int, int]:
    """g q g^dag: inverse conjugation of a single gate."""
    name = gate[0]
    if name == "K":
        # K q K^dag = (K^3)^dag q K^3
        for _ in range(3):
            x, z, phase = _conj_gate(gate, x, z, phase)
        return x, z, phase
    return _conj_gate(gate, x, z, phase)  # H, CNOT, Paulis are involutions


@dataclass(frozen=True)
class CliffordUnitary:
    """Clifford given by a gate list over {X, Y, Z, H, K, CNOT}.

    ``gates`` are in application order (first gate acts first on states).
    """

    n: int
    gates: tuple = ()

    def __post_init__(self):
        for g in self.gates:
            if g[0] not in GATE_NAMES:
                raise ValueError(f"unknown gate {g[0]!r}")
            for q in g[1:]:
                if not 0 <= q < self.n:
                    raise ValueError("gate target out of range")
            if g[0] == "CNOT" and g[1] == g[2]:
                raise ValueError("CNOT control equals target")

    def conjugate(self, q: PauliOperator) -> PauliOperator:
        """Return C^dag q C, the unique q' with q C = C q'."""
        if q.n != self.n:
            raise ValueError("size mismatch")
        x, z, phase = q.x, q.z, q.phase_exp
        for g in reversed(self.gates):
            x, z, phase = _conj_gate(g, x, z, phase)
        return PauliOperator(self.n, x, z, phase)

    def propagate(self, q: PauliOperator) -> PauliOperator:
        """Return C q C^dag (push q forward through the circuit)."""
        if q.n != self.n:
            raise ValueError("size mismatch")
        x, z, phase = q.x, q.z, q.phase_exp
        for g in self.gates:
            x, z, phase = _prop_gate(g, x, z, phase)
        return PauliOperator(self.n, x, z, phase)

    def inverse(self) -> "CliffordUnitary":
        inv = []
        for g in reversed(self.gates):
            if g[0] == "K":
                inv.extend([g, g, g])
            else:
                inv.append(g)
        return CliffordUnitary(self.n, tuple(inv))


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..size-1}; mapping[i] is the image of i."""

    size: int
    mapping: tuple

    def __post_init__(self):
        if sorted(self.mapping) != list(range(self.size)):
            raise ValueError("mapping is not a bijection")

    @staticmethod
    def random(size: int, rng) -> "Permutation":
        # Fisher-Yates under the supplied generator.
        arr = list(range(size))
        swaps = _fisher_yates_swaps(size, 1, rng)[0].tolist()
        for i, j in zip(range(size - 1, 0, -1), swaps):
            arr[i], arr[j] = arr[j], arr[i]
        return Permutation(size, tuple(arr))


def _fisher_yates_swaps(size: int, count: int, rng) -> np.ndarray:
    """The swap indices of ``count`` Fisher-Yates shuffles of ``size``
    items, drawn in one call: row s, column k is the j in [0, i] swapped
    with i = size - 1 - k.

    The array draw yields the integers that the scalar draws
    ``rng.integers(0, i + 1)`` would, in the same order, and leaves ``rng``
    in the same state.
    """
    highs = np.tile(np.arange(size, 1, -1), count)
    return rng.integers(0, highs).reshape(count, max(size - 1, 0))


def random_permutations(size: int, count: int, rng) -> np.ndarray:
    """``count`` successive ``Permutation.random(size, rng)`` mappings as
    the rows of one (count, size) array, shuffled together."""
    swaps = _fisher_yates_swaps(size, count, rng).T.copy()
    cols = np.tile(np.arange(size)[:, None], (1, count))
    every = np.arange(count)
    for i, j in zip(range(size - 1, 0, -1), swaps):
        held = cols[i].copy()
        cols[i] = cols[j, every]
        cols[j, every] = held
    return cols.T
