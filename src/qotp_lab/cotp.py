"""Classical layer: one-time MAC, a trusted classical one-time-program
oracle, and the bounded-reactive OTP built on top of it.

The COTP is deliberately an ideal-functionality oracle (hybrid model), not a
garbled-circuit realization.  The BR-OTP chains one COTP per round: each
round function verifies then unpads the carried, authenticated-encrypted
state of the previous round; out-of-order or tampered queries abort, and
aborts are absorbing.

The carried states the quantum one-time program hands this layer are a
fixed binary layout of its verifier (``qotp._serialize_verifier``), so
a round's MAC tags each key's x and z words and little else.

Wire encoding: payloads are length-prefixed byte strings; an abort is the
single byte 0xFF followed by a one-byte reason code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .rng import random_bits

# ---------------------------------------------------------------------------
# GF(2^kappa) arithmetic with fixed reduction polynomials
# ---------------------------------------------------------------------------

REDUCTION_POLY = {
    2: (1 << 2) | 0b11,                      # x^2 + x + 1
    8: (1 << 8) | 0b11011,                   # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | (1 << 12) | 0b1011,      # x^16 + x^12 + x^3 + x + 1
    64: (1 << 64) | 0b11011,                 # x^64 + x^4 + x^3 + x + 1
}


def gf_mul(a: int, b: int, kappa: int) -> int:
    poly = REDUCTION_POLY[kappa]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> kappa:
            a ^= poly
    return acc


class DoubleUseError(RuntimeError):
    """A one-time object was executed twice."""


# ---------------------------------------------------------------------------
# trusted COTP oracle
# ---------------------------------------------------------------------------

class CotpInstance:
    """Trusted one-time program oracle for a classical two-party function."""

    def __init__(self, f: Callable, sender_input):
        self._f = f
        self._a = sender_input
        self.consumed = False

    def execute(self, receiver_input):
        if self.consumed:
            raise DoubleUseError("one-time program already executed")
        self.consumed = True
        out = self._f(self._a, receiver_input)
        self._f = None
        self._a = None
        return out


# ---------------------------------------------------------------------------
# one-time MAC: tag(m) = a*m + b over GF(2^kappa)
# ---------------------------------------------------------------------------

@dataclass
class MacKey:
    a: int
    b: int
    kappa: int

    @staticmethod
    def random(kappa: int, rng) -> "MacKey":
        return MacKey(random_bits(rng, kappa), random_bits(rng, kappa), kappa)


def mac_tag_blocks(key: MacKey, blocks: list[int]) -> int:
    """Polynomial extension of the one-time MAC to multi-block messages.

    Horner evaluation tag = b + a*(m_t + a*(m_{t-1} + ...)); collapses to
    a*m + b for a single block.  Needed because the reactive program's
    carried state exceeds one field element at protocol scale.
    """
    acc = 0
    for m in blocks:
        if m >> key.kappa:
            raise ValueError("block length must equal kappa")
        acc = gf_mul(acc ^ m, key.a, key.kappa)
    return acc ^ key.b


def mac_verify_blocks(key: MacKey, blocks: list[int], tag: int) -> bool:
    return mac_tag_blocks(key, blocks) == tag


# ---------------------------------------------------------------------------
# byte helpers and wire encoding
# ---------------------------------------------------------------------------

ABORT_BYTE = 0xFF
ABORT_REASONS = {"mac": 0x01, "order": 0x02, "consumed": 0x03, "absorbed": 0x04}


def encode_payload(*parts: bytes) -> bytes:
    out = bytearray()
    for p in parts:
        out.extend(len(p).to_bytes(4, "big"))
        out.extend(p)
    return bytes(out)


def decode_payload(data: bytes) -> list[bytes]:
    parts = []
    i = 0
    while i < len(data):
        ln = int.from_bytes(data[i:i + 4], "big")
        i += 4
        parts.append(data[i:i + ln])
        i += ln
    return parts


def abort_message(reason: str) -> bytes:
    return bytes([ABORT_BYTE, ABORT_REASONS[reason]])


def is_abort(data: bytes) -> bool:
    return len(data) >= 1 and data[0] == ABORT_BYTE


def _bytes_to_blocks(data: bytes, kappa: int) -> list[int]:
    """The kappa-bit MAC blocks of ``data``, most significant first; below
    kappa = 8 each byte splits into 8 / kappa blocks, so every bit is
    tagged."""
    if kappa < 8:
        mask = (1 << kappa) - 1
        return [(byte >> shift) & mask for byte in data
                for shift in range(8 - kappa, -1, -kappa)] or [0]
    step = kappa // 8
    return [int.from_bytes(data[i:i + step], "big")
            for i in range(0, len(data), step)] or [0]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _seal(state: bytes, pad: bytes, mac: MacKey) -> bytes:
    """The carried form of ``state``: zero-filled to the pad's length,
    one-time padded, then tagged."""
    state = state.ljust(len(pad), b"\0")
    if len(state) != len(pad):
        raise ValueError("state exceeds the declared length")
    c0 = _xor_bytes(state, pad)
    tag = mac_tag_blocks(mac, _bytes_to_blocks(c0, mac.kappa))
    return encode_payload(c0, tag.to_bytes((mac.kappa + 7) // 8, "big"))


def _open(carried: bytes, pad: bytes, mac: MacKey) -> bytes | None:
    """The state ``_seal`` put into ``carried``, or None when its framing,
    its length or its tag is wrong (a length prefix is framing too: one
    that overstates its part's length is refused, and the tag part has
    the width ``_seal`` gives it)."""
    parts = decode_payload(carried)
    if len(parts) != 2 or len(parts[0]) != len(pad) \
            or len(parts[1]) != (mac.kappa + 7) // 8 \
            or encode_payload(*parts) != carried:
        return None
    c0, c1 = parts
    if not mac_verify_blocks(mac, _bytes_to_blocks(c0, mac.kappa),
                             int.from_bytes(c1, "big")):
        return None
    return _xor_bytes(c0, pad)


# ---------------------------------------------------------------------------
# the bounded-reactive one-time program (Protocol-6-style construction)
# ---------------------------------------------------------------------------

@dataclass
class BrOtpProgram:
    """Receiver-side handle over the chained COTP instances.

    ``round_functions`` follow the reactive shape: g_1(a, b_1) -> (m_1, s_1),
    g_i(b_i, s_{i-1}) -> (m_i, s_i); states are byte strings padded to
    the ``state_len`` bytes given to ``brotp_compile``.
    """

    cotps: list
    ell: int
    aborted: bool = False

    def query(self, i: int, b_i: bytes, carried: bytes = b"") -> bytes:
        """Run round i; ``carried`` is the previous round's ciphertext+tag."""
        if self.aborted:
            return abort_message("absorbed")
        if i < 1 or i > self.ell:
            self.aborted = True
            return abort_message("order")
        cotp = self.cotps[i - 1]
        if cotp.consumed:
            self.aborted = True
            return abort_message("consumed")
        out = cotp.execute((b_i, carried))
        if is_abort(out):
            self.aborted = True
        return out


def brotp_compile(round_functions: list, sender_input, kappa: int,
                  state_len: int, rng) -> BrOtpProgram:
    """Wrap the round functions into one COTP per round with MAC chaining;
    a round function that returns None refuses its round, which aborts
    with ``order``."""
    ell = len(round_functions)
    if ell < 1:
        raise ValueError("need at least one round")
    pads = [rng.bytes(state_len) for _ in range(ell - 1)]
    macs = [MacKey.random(kappa, rng) for _ in range(ell - 1)]

    def make_f(i: int):
        g = round_functions[i - 1]

        def f(sender, receiver):
            b_i, carried = receiver
            if i == 1:
                out = g(sender, b_i)
            else:
                s_prev = _open(carried, pads[i - 2], macs[i - 2])
                if s_prev is None:
                    return abort_message("mac")
                out = g(b_i, s_prev)
            if out is None:
                return abort_message("order")
            m, s = out
            if i < ell:
                return encode_payload(m, _seal(s, pads[i - 1], macs[i - 1]))
            return encode_payload(m, b"")

        return f

    cotps = [CotpInstance(make_f(i), sender_input if i == 1 else None)
             for i in range(1, ell + 1)]
    return BrOtpProgram(cotps, ell)


def brotp_query(program: BrOtpProgram, i: int, b_i: bytes,
                carried: bytes = b"") -> tuple[bytes, bytes] | None:
    """Convenience wrapper: returns (m_i, carried') or None on abort."""
    out = program.query(i, b_i, carried)
    if is_abort(out):
        return None
    m, carried_next = decode_payload(out)
    return m, carried_next


def run_honest_chain(program: BrOtpProgram, inputs: list[bytes]) -> list[bytes]:
    """Query rounds 1..ell in order; returns the m_i list (or raises)."""
    carried = b""
    out = []
    for i, b_i in enumerate(inputs, start=1):
        res = brotp_query(program, i, b_i, carried)
        if res is None:
            raise RuntimeError(f"honest chain aborted in round {i}")
        m, carried = res
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# ideal reactive functionality (the reference the construction must match)
# ---------------------------------------------------------------------------

class BrOtpIdeal:
    """Direct implementation of the bounded-reactive ideal functionality."""

    def __init__(self, round_functions: list, sender_input):
        self.gs = list(round_functions)
        self.a = sender_input
        self.state = None
        self.evaluated = [False] * len(self.gs)

    def execute(self, i: int, b_i: bytes) -> bytes | None:
        if i < 1 or i > len(self.gs):
            return None
        if any(not self.evaluated[j] for j in range(i - 1)):
            return None  # some g_j with j < i has not been evaluated
        if self.evaluated[i - 1]:
            return None  # g_i has already been evaluated
        if i == 1:
            m, s = self.gs[0](self.a, b_i)
        else:
            m, s = self.gs[i - 1](b_i, self.state)
        self.state = s
        self.evaluated[i - 1] = True
        if all(self.evaluated):
            self.gs = None
            self.a = None
        return m


# ---------------------------------------------------------------------------
# the simulator for a corrupted receiver
# ---------------------------------------------------------------------------

def brotp_simulator(ideal: BrOtpIdeal, ell: int, kappa: int, state_len: int,
                    rng) -> BrOtpProgram:
    """Ideal-world receiver simulation: the real chain over round functions
    that answer from the ideal functionality and carry fresh random states
    (a substitute state is drawn after its round's carried state opens)."""
    def answer(i: int, b_i: bytes):
        m = ideal.execute(i, b_i)
        if m is None:  # the ideal refuses a call out of order
            return None
        return m, rng.bytes(state_len) if i < ell else b""

    rounds = [lambda _a, b_1: answer(1, b_1)] + [
        lambda b_i, _s, i=i: answer(i, b_i) for i in range(2, ell + 1)]
    return brotp_compile(rounds, None, kappa, state_len, rng)
