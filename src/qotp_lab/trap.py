"""The trap authentication scheme.

A trap code on base code [[n,1,d]] appends n |0> trap qubits and n |+> trap
qubits to the encoded block and permutes all 3n positions.  Keys are the
shared permutation (code key) plus one uniform Pauli per authenticated
register (quantum one-time pad).

Role layout before permuting: positions 0..n-1 carry the encoded base block
(in base-encoder wire order), n..2n-1 the |0> traps, 2n..3n-1 the |+> traps.
Role r sits at physical position pi(r).  A ``TrapCode`` computes its trap
masks and embedded base checks once; per-key attack classification and
record decoding read them.  The Monte-Carlo estimates and sweeps instead lay
out many permutations at once in a ``TrapTable`` of stacked uint64 masks and
classify every (permutation, attack) pair with array operations.  Their
exact values come from one closed form, ``attack_counts``: under a uniform
permutation an X attack of weight w lands on a uniform w-subset of the
roles, so its reject, trivial-accept and nontrivial-accept counts are
hypergeometric sums over the weight histograms of the base code's
stabilizer and logical-X cosets, at any scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .css import CssCode
from .paulis import PauliOperator, Permutation, random_permutations
from .rng import random_masks

_CHUNK = 1024       # permutations drawn and laid out at a time
_BLOCK = 1 << 15    # (permutation, attack) pairs classified at a time
_INT64_MAX = (1 << 63) - 1
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass(frozen=True, slots=True)
class TrapCode:
    """One permutation's trap code, its layout computed once.

    ``zero_mask`` and ``plus_mask`` mark the |0> and |+> traps; ``hz_rows``,
    ``hx_rows``, ``logical_x`` and ``logical_z`` are the base code's checks
    and logicals embedded at their physical positions.  Together with the
    trap singletons these rows are the checks of a [[3n,1,d]] CSS code.
    ``data_images`` is the base code's ``data_images`` embedded the same
    way: where the trap encoder carries X and Z of the data position.
    """

    base: CssCode
    pi: Permutation
    zero_mask: int = field(init=False, repr=False, compare=False)
    plus_mask: int = field(init=False, repr=False, compare=False)
    hz_rows: tuple = field(init=False, repr=False, compare=False)
    hx_rows: tuple = field(init=False, repr=False, compare=False)
    logical_x: int = field(init=False, repr=False, compare=False)
    logical_z: int = field(init=False, repr=False, compare=False)
    data_images: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.pi.size != 3 * self.base.n:
            raise ValueError("permutation must act on 3n qubits")
        put = object.__setattr__
        put(self, "zero_mask", sum(1 << p for p in self.zero_trap_positions))
        put(self, "plus_mask", sum(1 << p for p in self.plus_trap_positions))
        put(self, "hz_rows", tuple(map(self.embed_base_mask, self.base.hz)))
        put(self, "hx_rows", tuple(map(self.embed_base_mask, self.base.hx)))
        put(self, "logical_x", self.embed_base_mask(self.base.logical_x))
        put(self, "logical_z", self.embed_base_mask(self.base.logical_z))
        put(self, "data_images", tuple(
            (self.embed_base_mask(x), self.embed_base_mask(z))
            for x, z in self.base.data_images))

    @property
    def n(self) -> int:
        return 3 * self.base.n

    # -- position bookkeeping ----------------------------------------------
    @property
    def base_positions(self) -> tuple:
        return self.pi.mapping[:self.base.n]

    @property
    def zero_trap_positions(self) -> tuple:
        return self.pi.mapping[self.base.n:2 * self.base.n]

    @property
    def plus_trap_positions(self) -> tuple:
        return self.pi.mapping[2 * self.base.n:]

    def data_position(self) -> int:
        return self.pi.mapping[0]

    def embed_base_mask(self, mask: int) -> int:
        """Base-wire bits of ``mask`` moved to their physical positions."""
        out = 0
        for wire, p in enumerate(self.base_positions):
            if (mask >> wire) & 1:
                out |= 1 << p
        return out

    def base_word(self, mask: int) -> int:
        """The base-wire bits of a physical ``mask``: the inverse of
        ``embed_base_mask``."""
        word = 0
        for wire, p in enumerate(self.base_positions):
            word |= ((mask >> p) & 1) << wire
        return word

    def logical_pauli(self, letter: str) -> PauliOperator:
        """The embedded logical representative of ``letter`` in IXYZ."""
        return PauliOperator.from_masks(
            self.n, self.logical_x if letter in "XY" else 0,
            self.logical_z if letter in "ZY" else 0)

    def data_key(self, x: int, z: int) -> int:
        """The Pauli X^a Z^b, as bits a | b << 1, that decoding leaves on the
        data wire of a block hit by X^x Z^z (phase dropped).

        a is the x bit of E^dag X^x Z^z E at the data position, so its
        symplectic product with Z there; conjugating both by E, that is
        the product of (x, z) with E Z E^dag.  b is the same with X.

        ``x`` and ``z`` may also be int64 arrays of masks (every outcome of
        an enumerated branch at once), which gives an array of keys.  Such
        masks lie below 2^63, so only the images' low 63 bits meet them.
        """
        (xx, xz), (zx, zz) = self.data_images
        if type(x) is int:
            a = ((x & zz) ^ (z & zx)).bit_count() & 1
            b = ((x & xz) ^ (z & xx)).bit_count() & 1
        else:
            xx, xz, zx, zz = (m & _INT64_MAX for m in (xx, xz, zx, zz))
            a = np.bitwise_count((x & zz) ^ (z & zx)) & 1
            b = np.bitwise_count((x & xz) ^ (z & xx)) & 1
        return a | b << 1

    # -- encoder as explicit operations ---------------------------------------
    def encoding_ops(self, ids: list[int]) -> list[tuple]:
        """Gate list realizing E_pi on the given 3n qubit ids.

        ``ids[p]`` is the qubit at physical position p; the logical data is
        expected on ``ids[self.data_position()]`` (base encoder wire 0),
        syndrome and trap inputs must be |0>.
        """
        return [("H", ids[p]) for p in self.plus_trap_positions] + \
            self._on_base(self.base.encoder.gates, ids)

    def decoding_ops(self, ids: list[int]) -> list[tuple]:
        return self._on_base(_decoder_gates(self.base), ids) + \
            [("H", ids[p]) for p in self.plus_trap_positions]

    def _on_base(self, gates, ids: list[int]) -> list[tuple]:
        """The base-wire gate list ``gates`` on the qubits ``ids``."""
        w = [ids[p] for p in self.base_positions]
        return [(g[0], w[g[1]]) if len(g) == 2 else (g[0], w[g[1]], w[g[2]])
                for g in gates]

    # -- classical record decoding ---------------------------------------------
    def decode_record(self, c: int, hadamard: bool = False) -> tuple[int, bool]:
        """(logical bit, accepted) of a 3n-bit computational-basis record
        (already key-unmasked).

        With ``hadamard`` set, the record was taken right after a bitwise H:
        the trap roles swap (|+> traps must now read 0, |0> traps are ignored)
        while the self-dual base decode is unchanged.
        """
        res = self.base.classical_decode(self.base_word(c))
        traps = self.plus_mask if hadamard else self.zero_mask
        return res.logical_bit, res.clean and not c & traps


@functools.cache
def _decoder_gates(base: CssCode) -> tuple:
    return base.encoder.inverse().gates


@dataclass(frozen=True)
class AttackClassification:
    verdict: str          # trivial_accept | nontrivial_accept | reject
    x_only_verdict: str   # same set, ignoring the Z-error syndrome
    induced_logical: PauliOperator | None


def classify_masks(trap: TrapCode, x: int, z: int) -> tuple[str, str]:
    """(verdict, x_only_verdict) for the attack X^x Z^z, masks only."""
    x_syn = bool(x & trap.zero_mask) or \
        any((r & x).bit_count() & 1 for r in trap.hz_rows)
    a = (x & trap.logical_z).bit_count() & 1
    if x_syn:
        x_only = "reject"
    elif a:
        x_only = "nontrivial_accept"
    else:
        x_only = "trivial_accept"
    z_syn = bool(z & trap.plus_mask) or \
        any((r & z).bit_count() & 1 for r in trap.hx_rows)
    if x_syn or z_syn:
        return "reject", x_only
    b = (z & trap.logical_x).bit_count() & 1
    verdict = "nontrivial_accept" if (a | b) else "trivial_accept"
    return verdict, x_only


@dataclass(frozen=True, eq=False)
class TrapTable:
    """The trap codes of S permutations as stacked uint64 masks.

    Physical position p is bit p % 64 of word p // 64, W = ceil(3n / 64)
    words per mask.  ``zero``, ``plus``, ``logical_x`` and ``logical_z`` have
    shape (S, W) and ``hz_rows`` and ``hx_rows`` shape (S, r, W); row s holds
    what ``TrapCode(base, Permutation(3n, perms[s]))`` holds as Python ints.
    All six are views of one (S, 4 + r_z + r_x, W) array ``masks``.
    """

    masks: np.ndarray
    rz: int

    @classmethod
    def build(cls, base: CssCode, perms: np.ndarray) -> "TrapTable":
        """The table of the (S, 3n) permutation mappings ``perms``."""
        n = base.n
        roles = [range(n, 2 * n), range(2 * n, 3 * n)] + [
            [wire for wire in range(n) if (mask >> wire) & 1]
            for mask in (base.logical_x, base.logical_z, *base.hz, *base.hx)]
        where = np.ascontiguousarray(perms.T)
        bits = _BIT[where & 63]
        masks = np.empty((len(perms), len(roles), -(-perms.shape[1] // 64)),
                         dtype=np.uint64)
        for word in range(masks.shape[2]):
            held = np.where(where >> 6 == word, bits, 0)
            for k, r in enumerate(roles):
                masks[:, k, word] = np.bitwise_or.reduce(held[r], axis=0)
        return cls(masks, len(base.hz))

    zero = property(lambda self: self.masks[:, 0])
    plus = property(lambda self: self.masks[:, 1])
    logical_x = property(lambda self: self.masks[:, 2])
    logical_z = property(lambda self: self.masks[:, 3])
    hz_rows = property(lambda self: self.masks[:, 4:4 + self.rz])
    hx_rows = property(lambda self: self.masks[:, 4 + self.rz:])

    def nontrivial_accepts(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(S, A) bool: the attack X^x[a] Z^z[a], given as (A, W) uint64
        masks, is a nontrivial accept under permutation s; the first verdict
        of ``classify_masks`` for every pair.

        Every step is one elementwise pass over (S, A), one check row at a
        time.  The low bit of an OR of popcounts is the OR of their
        parities, so the odd-syndrome test keeps ORing popcounts and masks
        the low bit once.
        """
        hit = _words_and(self.zero, x, np.bitwise_or) \
            | _words_and(self.plus, z, np.bitwise_or)
        odd = np.zeros(hit.shape, dtype=np.uint8)
        for row in self.hz_rows.transpose(1, 0, 2):
            odd |= _popcount(row, x)
        for row in self.hx_rows.transpose(1, 0, 2):
            odd |= _popcount(row, z)
        flip = _popcount(self.logical_z, x) | _popcount(self.logical_x, z)
        return ((flip & ~odd & 1) != 0) & (hit == 0)


def _words_and(mask: np.ndarray, v: np.ndarray, fold) -> np.ndarray:
    """(S, A) uint64: ``mask[s] & v[a]`` for (S, W) ``mask`` and (A, W)
    ``v``, its W words folded together by the ufunc ``fold``."""
    word = mask[:, None, 0] & v[None, :, 0]
    for k in range(1, v.shape[1]):
        fold(word, mask[:, None, k] & v[None, :, k], out=word)
    return word


def _popcount(mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(S, A) uint8 whose low bit is the parity of ``mask[s] & v[a]``."""
    return np.bitwise_count(_words_and(mask, v, np.bitwise_xor))


def _words(masks: list[int], n3: int) -> np.ndarray:
    """Python-int masks on ``n3`` positions as an (A, W) uint64 array."""
    return np.array([[(m >> shift) & 0xFFFF_FFFF_FFFF_FFFF for m in masks]
                     for shift in range(0, n3, 64)], dtype=np.uint64).T


def sample_trap_tables(base: CssCode, count: int, rng):
    """``count`` uniform permutations as ``TrapTable``s of at most ``_CHUNK``
    rows each: the permutations, and the stream left in ``rng``, of
    ``count`` successive ``sample_trap_code`` calls."""
    for start in range(0, count, _CHUNK):
        yield TrapTable.build(base, random_permutations(
            3 * base.n, min(_CHUNK, count - start), rng))


def count_nontrivial(tables, attacks: list[tuple[int, int]],
                     n3: int) -> np.ndarray:
    """(A,) int64: for each attack X^x Z^z, given as an (x, z) pair of masks
    on ``n3`` positions, the rows of all ``tables`` under which it is a
    nontrivial accept; classified in blocks of at most ``_BLOCK``
    (permutation, attack) pairs."""
    x = _words([x for x, _ in attacks], n3)
    z = _words([z for _, z in attacks], n3)
    hits = np.zeros(len(attacks), dtype=np.int64)
    step = min(len(attacks), _BLOCK) or 1
    rows = max(1, _BLOCK // step)
    for table in tables:
        for a in range(0, len(attacks), step):
            for s in range(0, len(table.masks), rows):
                block = TrapTable(table.masks[s:s + rows], table.rz)
                hits[a:a + step] += block.nontrivial_accepts(
                    x[a:a + step], z[a:a + step]).sum(0)
    return hits


def classify_pauli_attack(trap: TrapCode, q: PauliOperator) -> AttackClassification:
    """Exact symbolic classification of a Pauli attack on the trap code.

    An accepted attack acts on the traps only through their stabilizers (Z
    on |0> traps, X on |+> traps), so its induced logical is that of its
    base part, phase included.
    """
    if q.n != trap.n:
        raise ValueError("size mismatch")
    verdict, x_only = classify_masks(trap, q.x, q.z)
    induced = None
    if verdict != "reject":
        base_q = PauliOperator(trap.base.n, trap.base_word(q.x),
                               trap.base_word(q.z), q.phase_exp)
        induced = trap.base.logical_pauli_of(base_q).logical
    return AttackClassification(verdict, x_only, induced)


@dataclass
class AuthKey:
    """Verifier key material: shared code key plus per-register Pauli keys."""

    trap: TrapCode
    pauli_keys: dict[str, PauliOperator] = field(default_factory=dict)


def random_paulis(n: int, rng, count: int) -> list[PauliOperator]:
    """``count`` uniform Paulis, each its X then its Z mask, in one draw."""
    masks = iter(random_masks(rng, n, 2 * count))
    return [PauliOperator.from_masks(n, x, z) for x, z in zip(masks, masks)]


def random_pauli(n: int, rng) -> PauliOperator:
    return random_paulis(n, rng, 1)[0]


def sample_trap_code(base: CssCode, rng) -> TrapCode:
    return TrapCode(base, Permutation.random(3 * base.n, rng))


def sample_auth_key(base: CssCode, registers, rng) -> AuthKey:
    """Uniform permutation plus independent uniform Pauli key per register."""
    trap = sample_trap_code(base, rng)
    keys = {name: random_pauli(trap.n, rng) for name in registers}
    return AuthKey(trap, keys)


# ---------------------------------------------------------------------------
# state-level authenticate / verify
# ---------------------------------------------------------------------------

def authenticate_register(state, trap: TrapCode, key: PauliOperator,
                          data_qubit: int) -> list[int]:
    """Encode ``data_qubit`` plus fresh traps and apply the Pauli key.

    Returns the 3n register qubit ids in physical-position order; the data
    qubit is placed at ``trap.data_position()``.
    """
    fresh = state.append_qubits(trap.n - 1)
    dpos = trap.data_position()
    ids = fresh[:dpos] + [data_qubit] + fresh[dpos:]
    place_register(state, trap, ids)
    state.apply_gates(trap.encoding_ops(ids))
    state.apply_pauli(key, ids)
    return ids


def place_register(state, trap: TrapCode, ids: list[int]) -> None:
    """Tell ``state`` that ``ids``, in physical-position order, hold a
    register placed by ``trap``'s permutation, before any gate acts on its
    fresh qubits.  A replayed keyed run (``backends.frame.FrameReplay``)
    relabels them by role; the other backends have no ``relabel``."""
    relabel = getattr(state, "relabel", None)
    if relabel is not None:
        relabel(ids, trap.pi.mapping)


def verify_and_decode(state, trap: TrapCode, key: PauliOperator,
                      ids: list[int], rng) -> tuple[bool, int]:
    """Strip the key, decode, and measure and drop every syndrome/trap
    qubit.

    Returns (accepted, data qubit id); acceptance requires every measured
    bit to be zero.
    """
    state.apply_pauli(key.adjoint(), ids)
    state.apply_gates(trap.decoding_ops(ids))
    dpos = trap.data_position()
    bits = state.measure_and_drop(ids[:dpos] + ids[dpos + 1:], rng)
    return not any(bits), ids[dpos]


# ---------------------------------------------------------------------------
# security estimation
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 0.0, 1.0
    phat = hits / trials
    denom = 1 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # at zero hits the lower end is exactly 0; centre - half would leave
    # float cancellation residue up to ~1e-17
    lo = 0.0 if hits == 0 else max(0.0, centre - half)
    return phat, lo, min(1.0, centre + half)


@dataclass(frozen=True)
class SecurityEstimate:
    attack: str
    weight: int
    samples: int
    eps_hat: float
    ci_lo: float
    ci_hi: float
    bound: float


def _estimate(attack: PauliOperator, hits: int,
              samples: int) -> SecurityEstimate:
    eps_hat, lo, hi = wilson_interval(hits, samples)
    w = attack.weight()
    return SecurityEstimate(attack.to_label(), w, samples, eps_hat, lo, hi,
                            (2 / 3) ** (w / 2))


def estimate_attack_security(base: CssCode, attack: PauliOperator,
                             samples: int, rng) -> SecurityEstimate:
    """Fraction of uniform permutations for which the fixed attack is a
    nontrivial accept, with a 95% Wilson CI, against (2/3)^{w/2}."""
    hits = count_nontrivial(sample_trap_tables(base, samples, rng),
                            [(attack.x, attack.z)], attack.n)
    return _estimate(attack, int(hits[0]), samples)


def _span(rows) -> np.ndarray:
    """Every combination of ``rows`` XORed together, as uint64 words."""
    table = np.zeros(1, dtype=np.uint64)
    for row in rows:
        table = np.concatenate((table, table ^ np.uint64(row)))
    return table


def _placements(hist: np.ndarray, n: int, weight: int) -> int:
    """Sum over k of hist[k] C(n, weight - k): the role subsets whose base
    part is one of the hist[k] words of weight k and whose other
    weight - k roles are among the n |+> traps."""
    return sum(int(h) * math.comb(n, weight - k)
               for k, h in enumerate(hist[:weight + 1]))


def attack_counts(base: CssCode, weight: int) -> tuple[int, int, int]:
    """Of the C(3n, w) role subsets a weight-w X attack can land on, the
    numbers that are rejected, trivially accepted and nontrivially
    accepted.

    The attack is accepted when it hits no |0> trap and its base part has
    zero syndrome: a word of span(hx) (trivial) or of the logical-X coset
    (nontrivial); the rest lands on |+> traps.  Both weight histograms come
    from two span tables of half the X checks each: every word is one word
    of the first XOR one of the second, shifted by the logical X for the
    coset, so 2^24 words at distance 9 are 2^12 x 2^12 popcounts.
    """
    n = base.n
    if n > 64:
        raise ValueError("exact attack counting needs a base code of "
                         f"at most 64 qubits, got {n}")
    half = len(base.hx) // 2
    left = _span(base.hx[:half])
    right = _span(base.hx[half:])
    hists = np.zeros((2, n + 1), dtype=np.int64)
    step = max(1, (1 << 20) // len(right))
    for start in range(0, len(left), step):
        words = left[start:start + step, None] ^ right[None, :]
        for hist, coset in zip(hists, (words,
                                       words ^ np.uint64(base.logical_x))):
            hist += np.bincount(np.bitwise_count(coset).ravel(),
                                minlength=n + 1)
    trivial, nontrivial = (_placements(h, n, weight) for h in hists)
    return (math.comb(3 * n, weight) - trivial - nontrivial, trivial,
            nontrivial)


def exact_attack_probabilities(base: CssCode,
                               weight: int) -> tuple[float, float, float]:
    """Exact Pr_pi of (reject, trivial accept, nontrivial accept) for an X
    attack of the given weight under a uniform permutation: the
    ``attack_counts``, each divided once by C(3n, w)."""
    total = math.comb(3 * base.n, weight)
    return tuple(count / total for count in attack_counts(base, weight))


def security_sweep_rows(base: CssCode, weight: int, attacks: int,
                        samples: int, rng) -> list[SecurityEstimate]:
    """Monte-Carlo sweep over sampled X-type attacks of the given weight.

    All attacks are judged against one shared set of permutation draws,
    all drawn before the attacks.
    """
    n3 = 3 * base.n
    tables = list(sample_trap_tables(base, samples, rng))
    sampled = []
    for _ in range(attacks):
        positions = rng.choice(n3, size=weight, replace=False)
        mask = 0
        for p in positions:
            mask |= 1 << int(p)
        sampled.append(PauliOperator.from_masks(n3, mask, 0))
    hits = count_nontrivial(tables, [(a.x, a.z) for a in sampled], n3)
    return [_estimate(a, int(h), samples) for a, h in zip(sampled, hits)]


def sweep_to_csv(rows: list[SecurityEstimate], base: CssCode) -> str:
    lines = ["base_code,d,attack_weight,samples,eps_hat,ci_lo,ci_hi,bound"]
    for r in rows:
        lines.append(
            f"{base.name},{base.d},{r.weight},{r.samples},"
            f"{r.eps_hat:.17g},{r.ci_lo:.17g},{r.ci_hi:.17g},{r.bound:.17g}")
    return "\n".join(lines) + "\n"
