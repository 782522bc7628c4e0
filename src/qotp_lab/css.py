"""CSS code machinery: Steane [[7,1,3]], self-concatenation, encoder
circuits, classical decoding, and symbolic classification of Paulis
relative to a code.

Conventions (fixed so fixtures are reproducible bit-for-bit):

- Parity checks are stored as integer bitmasks, qubit j = bit j.
- The Steane checks are the [7,4] Hamming rows 0001111, 0110011, 1010101
  (qubit 0 is the leftmost character) used for both hx and hz.
- The encoder acts on wires (D, Sx_1..Sx_kx, Sz_1..Sz_kz) in that order;
  measuring Sx after decoding reveals the X-error syndrome (Z-type checks)
  and Sz the Z-error syndrome.  It is built from the parity-check matrix by
  a fixed Gaussian-elimination schedule: route wires, fan out the logical-X
  support from the data wire, then H + fan out each reduced hx row from its
  pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .gf2 import dot, relations, rref
from .paulis import CliffordUnitary, PauliOperator


@dataclass(frozen=True)
class DecodeResult:
    logical_bit: int
    error: int  # n-bit coset-leader pattern; 0 iff the record is clean

    @property
    def clean(self) -> bool:
        return self.error == 0


@dataclass(frozen=True)
class LogicalClass:
    """Classification of a Pauli relative to a code."""

    kind: str  # "trivial" | "logical" | "detected"
    logical: PauliOperator | None
    syndrome_x: tuple  # X-error syndrome bits (Z-type checks on x-part)
    syndrome_z: tuple  # Z-error syndrome bits (X-type checks on z-part)


@dataclass(frozen=True)
class CssCode:
    name: str
    n: int
    d: int
    hx: tuple          # X-type stabilizer generators (masks)
    hz: tuple          # Z-type stabilizer generators (masks)
    logical_x: int     # mask of the logical X representative
    logical_z: int
    _decode: Callable[[int], tuple[int, int]] = field(compare=False)

    # -- derived -----------------------------------------------------------
    @property
    def logical_x_pauli(self) -> PauliOperator:
        return PauliOperator.from_masks(self.n, self.logical_x, 0)

    @property
    def logical_z_pauli(self) -> PauliOperator:
        return PauliOperator.from_masks(self.n, 0, self.logical_z)

    def __post_init__(self):
        for rx in self.hx:
            for rz in self.hz:
                if dot(rx, rz):
                    raise ValueError("hx and hz are not orthogonal")
        if dot(self.logical_x, self.logical_z) != 1:
            raise ValueError("logical X and Z must anticommute")

    # -- encoder -----------------------------------------------------------
    @cached_property
    def encoder(self) -> CliffordUnitary:
        return build_encoder(self)

    @cached_property
    def data_images(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """(x mask, z mask) of E X_0 E^dag and of E Z_0 E^dag: the Paulis the
        encoder E makes of X and Z on the data wire."""
        images = [self.encoder.propagate(PauliOperator.single(self.n, 0, c))
                  for c in "XZ"]
        return tuple((p.x, p.z) for p in images)

    def encoder_wires(self) -> tuple[int, list[int], list[int]]:
        """(data wire, X-syndrome wires, Z-syndrome wires) of the encoder."""
        kx = len(self.hx)
        kz = len(self.hz)
        return 0, list(range(1, 1 + kz)), list(range(1 + kz, 1 + kz + kx))

    # -- classical decoding --------------------------------------------------
    def classical_decode(self, c: int) -> DecodeResult:
        a, e = self._decode(c)
        return DecodeResult(a, e)

    # -- symbolic classification ---------------------------------------------
    def syndromes_of(self, q: PauliOperator) -> tuple[tuple, tuple]:
        sx = tuple(dot(row, q.x) for row in self.hz)
        sz = tuple(dot(row, q.z) for row in self.hx)
        return sx, sz

    def logical_pauli_of(self, q: PauliOperator) -> LogicalClass:
        if q.n != self.n:
            raise ValueError("size mismatch")
        sx, sz = self.syndromes_of(q)
        if any(sx) or any(sz):
            return LogicalClass("detected", None, sx, sz)
        a = dot(q.x, self.logical_z)  # anticommutation with logical Z
        b = dot(q.z, self.logical_x)
        induced = self._induced_logical(q, a, b)
        kind = "trivial" if induced.is_identity() else "logical"
        return LogicalClass(kind, induced, sx, sz)

    def _induced_logical(self, q: PauliOperator, a: int, b: int) -> PauliOperator:
        """Exact i^k X^a Z^b induced on the logical qubit (zero syndrome).

        The reference Pauli is X_L^a Z_L^b times the X (Z) checks that a
        linear relation among the checks and ``rest``, the rest of q's x (z)
        part, picks.  Commuting checks of one type multiply to a sign-free
        Pauli, and the picked masks XOR to ``rest``: every such relation
        gives X^rest (Z^rest).
        """
        rest_x = q.x ^ a * self.logical_x
        rest_z = q.z ^ b * self.logical_z
        for rows, rest in ((self.hx, rest_x), (self.hz, rest_z)):
            if not any(c >> len(rows) & 1
                       for c in relations([*rows, rest])):
                raise AssertionError(
                    "zero-syndrome Pauli failed stabilizer solve")
        ref = PauliOperator.identity(self.n)
        if a:
            ref = ref * self.logical_x_pauli
        if b:
            ref = ref * self.logical_z_pauli
        ref = ref * PauliOperator.from_masks(self.n, rest_x, 0) \
            * PauliOperator.from_masks(self.n, 0, rest_z)
        res = (q.phase_exp - ref.phase_exp) & 3
        return PauliOperator(1, a, b, res)


# ---------------------------------------------------------------------------
# encoder construction
# ---------------------------------------------------------------------------

def _routing_swaps(route: dict[int, int], n: int) -> list[tuple]:
    """SWAP network (as CNOT triples) realizing wire -> position routing."""
    gates = []
    current = list(range(n))  # current[w] = wire sitting at position w
    pos_of = {w: w for w in range(n)}
    for wire, target in sorted(route.items()):
        p = pos_of[wire]
        if p == target:
            continue
        other = current[target]
        gates.extend([("CNOT", p, target), ("CNOT", target, p),
                      ("CNOT", p, target)])
        current[p], current[target] = other, wire
        pos_of[wire], pos_of[other] = target, p
    return gates


def build_encoder(code: CssCode) -> CliffordUnitary:
    n = code.n
    reduced, pivots = rref(list(code.hx), n)
    lx = code.logical_x
    for row, p in zip(reduced, pivots):
        if (lx >> p) & 1:
            lx ^= row
    if lx == 0:
        raise AssertionError("logical X reduced to a stabilizer")
    d0 = (lx & -lx).bit_length() - 1
    sx_positions = [j for j in range(n) if j not in pivots and j != d0]
    data_wire, sx_wires, sz_wires = code.encoder_wires()
    route = {data_wire: d0}
    for w, p in zip(sx_wires, sx_positions):
        route[w] = p
    for w, p in zip(sz_wires, pivots):
        route[w] = p
    gates = _routing_swaps(route, n)
    for j in range(n):
        if j != d0 and (lx >> j) & 1:
            gates.append(("CNOT", d0, j))
    for row, p in zip(reduced, pivots):
        gates.append(("H", p))
        for j in range(n):
            if j != p and (row >> j) & 1:
                gates.append(("CNOT", p, j))
    return CliffordUnitary(n, tuple(gates))


# ---------------------------------------------------------------------------
# Steane, toy, and concatenated codes
# ---------------------------------------------------------------------------

# qubit 0 is the leftmost character
_STEANE_ROWS = tuple(int(row[::-1], 2)
                     for row in ("0001111", "0110011", "1010101"))


def _hamming_decode(c: int) -> tuple[int, int]:
    # column j of the three rows reads j + 1 in binary, the top row most
    # significant, so a nonzero syndrome s names the flipped qubit s - 1
    top, mid, low = _STEANE_ROWS
    s = dot(top, c) << 2 | dot(mid, c) << 1 | dot(low, c)
    e = 1 << (s - 1) if s else 0
    return (c ^ e).bit_count() & 1, e


def build_steane() -> CssCode:
    return CssCode(
        name="steane",
        n=7,
        d=3,
        hx=_STEANE_ROWS,
        hz=_STEANE_ROWS,
        logical_x=0b1111111,
        logical_z=0b1111111,
        _decode=_hamming_decode,
    )


def build_toy_code() -> CssCode:
    """[[1,1,1]] identity code; security is vacuous but every flow runs."""
    return CssCode(
        name="toy",
        n=1,
        d=1,
        hx=(),
        hz=(),
        logical_x=1,
        logical_z=1,
        _decode=lambda c: (c & 1, 0),
    )


def concatenate(code: CssCode, levels: int) -> CssCode:
    """Nest a code with itself; levels=1 returns the input unchanged."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > 2:
        raise ValueError("capability bound: levels <= 2")
    if levels == 1:
        return code
    if code.logical_x != (1 << code.n) - 1 or code.logical_z != code.logical_x:
        raise ValueError("concatenation requires bitwise all-ones logicals")
    n, n2 = code.n, code.n * code.n
    block_ones = (1 << n) - 1

    def lift(rows: tuple) -> tuple:
        """Inner checks: each row on every block, block-major.  Outer
        checks: each row with its bits spread over whole blocks."""
        inner = [r << n * j for j in range(n) for r in rows]
        outer = [sum(block_ones << n * j for j in range(n) if r >> j & 1)
                 for r in rows]
        return tuple(inner + outer)

    def decode2(c: int) -> tuple[int, int]:
        # decode every block, then the word of their logical bits; an outer
        # error flips a whole block's logical value
        blocks = [code._decode(c >> n * j & block_ones) for j in range(n)]
        a, flips = code._decode(
            sum(bit << j for j, (bit, _) in enumerate(blocks)))
        error = 0
        for j, (_, e) in enumerate(blocks):
            error |= (e ^ (block_ones if flips >> j & 1 else 0)) << n * j
        return a, error

    return CssCode(
        name=f"{code.name}^2",
        n=n2,
        d=code.d ** 2,
        hx=lift(code.hx),
        hz=lift(code.hz),
        logical_x=(1 << n2) - 1,
        logical_z=(1 << n2) - 1,
        _decode=decode2,
    )


def code_from_spec(name: str, levels: int = 1) -> CssCode:
    builders = {"steane": build_steane, "toy": build_toy_code}
    if not isinstance(name, str) or name not in builders:
        raise ValueError(f"unknown base code {name!r}; "
                         f"choose one of {sorted(builders)}")
    base = builders[name]()
    return concatenate(base, levels) if levels > 1 else base
