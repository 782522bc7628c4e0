"""Classical stack: one-time semantics, the one-time MAC and its forgery bound,
the reactive one-time program against its ideal functionality, and the
receiver simulator."""

from fractions import Fraction

import numpy as np
import pytest

from qotp_lab.cotp import (REDUCTION_POLY, BrOtpIdeal, CotpInstance,
                           DoubleUseError, MacKey, _bytes_to_blocks,
                           abort_message, brotp_compile, brotp_query,
                           brotp_simulator, decode_payload, encode_payload,
                           gf_mul, is_abort, mac_tag_blocks,
                           mac_verify_blocks, run_honest_chain)


def otm(s0, s1):
    """A one-time memory: the COTP oracle of the selection function."""
    return CotpInstance(lambda slots, c: slots[c & 1], (s0, s1))


class TestOtm:
    def test_basic(self):
        assert otm("0", "1").execute(0) == "0"

    def test_double_use(self):
        token = otm("a", "b")
        token.execute(1)
        with pytest.raises(DoubleUseError):
            token.execute(0)

    def test_contract_many(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            s0, s1 = rng.bytes(4), rng.bytes(4)
            c = int(rng.integers(0, 2))
            assert otm(s0, s1).execute(c) == (s1 if c else s0)


class TestGf:
    def test_gf4_exhaustive_table(self):
        # brute force polynomial multiplication mod x^2 + x + 1
        def slow(a, b):
            prod = 0
            for i in range(2):
                if (b >> i) & 1:
                    prod ^= a << i
            for deg in (2,):
                if (prod >> 2) & 1:
                    prod ^= 0b111 << 0
            return prod & 3

        for a in range(4):
            for b in range(4):
                assert gf_mul(a, b, 2) == slow(a, b), (a, b)

    def test_gf8_field_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (int(rng.integers(0, 256)) for _ in range(3))
            assert gf_mul(a, gf_mul(b, c, 8), 8) == \
                gf_mul(gf_mul(a, b, 8), c, 8)
            assert gf_mul(a, b ^ c, 8) == gf_mul(a, b, 8) ^ gf_mul(a, c, 8)
            assert gf_mul(a, 1, 8) == a

    def test_gf8_invertibility(self):
        # every nonzero element has an inverse (field, not just a ring)
        for a in range(1, 256):
            assert any(gf_mul(a, b, 8) == 1 for b in range(1, 256))


class TestMac:
    # a one-block message is tagged a*m + b
    def test_zero_a_gives_b(self):
        key = MacKey(0, 0x5C, 8)
        for m in (0, 1, 0xAB):
            assert mac_tag_blocks(key, [m]) == 0x5C

    def test_kappa2_example(self):
        # a = x (=2), b = 1, m = x+1 (=3): a*m = x^2+x = 1, tag = 0
        key = MacKey(0b10, 0b01, 2)
        assert mac_tag_blocks(key, [0b11]) == 0

    def test_forgery_bound_exact_kappa8(self):
        """After one (m, sigma) pair the best forgery succeeds with
        probability exactly 2^-8, by exhaustive enumeration over all keys."""
        kappa = 8
        m, sigma = 0x3D, 0xA7
        consistent = [(a, sigma ^ gf_mul(a, m, kappa)) for a in range(256)]
        assert len(consistent) == 256
        for m_forge in (0x00, 0x01, 0x3C, 0xFF):
            if m_forge == m:
                continue
            best = 0
            for s_forge in range(256):
                hits = sum(1 for a, b in consistent
                           if gf_mul(a, m_forge, kappa) ^ b == s_forge)
                best = max(best, hits)
            assert best == 1  # exactly 2^-kappa of the 2^kappa keys

    def test_verify(self):
        key = MacKey(0x13, 0x55, 8)
        t = gf_mul(0x13, 0x42, 8) ^ 0x55
        assert mac_verify_blocks(key, [0x42], t)
        assert not mac_verify_blocks(key, [0x42], t ^ 1)


class TestMacBlocks:
    def test_kappa2_splits_each_byte_into_bit_pairs(self):
        assert _bytes_to_blocks(b"\xb4\x01", 2) == [2, 3, 1, 0, 0, 0, 0, 1]

    def test_short_tail_block_at_kappa64(self):
        data = bytes(range(1, 12))  # one 8-byte block, then 3 bytes
        assert _bytes_to_blocks(data, 64) == [0x0102030405060708, 0x090A0B]

    @pytest.mark.parametrize("kappa", sorted(REDUCTION_POLY))
    def test_oversized_block_rejected(self, kappa):
        key = MacKey(1, 0, kappa)
        for bad in ([1 << kappa], [0, (1 << kappa) + 1, 0], [-1]):
            with pytest.raises(ValueError, match="block length"):
                mac_tag_blocks(key, bad)
        assert mac_tag_blocks(key, [(1 << kappa) - 1]) == (1 << kappa) - 1


def toy_rounds(seed, ell=3):
    """Deterministic 1-bit-domain round functions with 1-byte state."""
    rng = np.random.default_rng(seed)
    tables = [
        {(b, s): (bytes([rng.integers(0, 2)]), bytes([rng.integers(0, 256)]))
         for b in (b"0", b"1") for s in range(256)}
        for _ in range(ell)
    ]

    def g1(a, b1):
        m, s = tables[0][(b1, a[0])]
        return m, s

    def make_gi(i):
        def gi(b_i, s_prev):
            m, s = tables[i][(b_i, s_prev[0])]
            return m, s
        return gi

    return [g1] + [make_gi(i) for i in range(1, ell)]


class TestBrOtp:
    def test_single_round_degenerates_to_cotp(self):
        def g1(a, b1):
            return bytes([a[0] ^ b1[0]]), b""

        rng = np.random.default_rng(5)
        prog = brotp_compile([g1], b"\x01", 16, 1, rng)
        m, carried = brotp_query(prog, 1, b"\x01")
        assert m == b"\x00" and carried == b""

    def test_honest_chain_matches_ideal_exhaustively(self):
        for seed in range(6):
            gs = toy_rounds(seed)
            for bits in range(8):
                inputs = [b"1" if (bits >> i) & 1 else b"0" for i in range(3)]
                rng = np.random.default_rng(77)
                prog = brotp_compile(gs, b"\x02", 16, 1, rng)
                real = run_honest_chain(prog, inputs)
                ideal = BrOtpIdeal(gs, b"\x02")
                want = [ideal.execute(i + 1, inputs[i]) for i in range(3)]
                assert real == want

    def test_out_of_order_aborts(self):
        gs = toy_rounds(1)
        rng = np.random.default_rng(9)
        prog = brotp_compile(gs, b"\x00", 16, 1, rng)
        assert brotp_query(prog, 2, b"0", b"") is None
        # absorbing: even the honest first round now fails
        assert brotp_query(prog, 1, b"0") is None

    def test_replay_round1_ciphertext_into_round3(self):
        gs = toy_rounds(2)
        rng = np.random.default_rng(11)
        prog = brotp_compile(gs, b"\x00", 16, 1, rng)
        m1, carried1 = brotp_query(prog, 1, b"0")
        m2, carried2 = brotp_query(prog, 2, b"0", carried1)
        assert brotp_query(prog, 3, b"0", carried1) is None  # wrong round key

    def test_consumed_round_aborts(self):
        gs = toy_rounds(3)
        rng = np.random.default_rng(13)
        prog = brotp_compile(gs, b"\x00", 16, 1, rng)
        _, carried = brotp_query(prog, 1, b"0")
        assert brotp_query(prog, 1, b"0") is None

    def test_tampered_state_aborts_whp(self):
        gs = toy_rounds(4)
        aborts = 0
        trials = 10_000
        rng = np.random.default_rng(17)
        for t in range(trials):
            prog = brotp_compile(gs, b"\x00", 16, 1,
                                 np.random.default_rng(1000 + t))
            _, carried = brotp_query(prog, 1, b"0")
            c0, c1 = decode_payload(carried)
            bitpos = int(rng.integers(0, 8 * len(c0)))
            c0 = bytearray(c0)
            c0[bitpos // 8] ^= 1 << (bitpos % 8)
            tampered = encode_payload(bytes(c0), c1)
            if brotp_query(prog, 2, b"0", tampered) is None:
                aborts += 1
        # abort probability >= 1 - 2^-16 per trial
        assert aborts >= trials - 5

    def test_kappa2_mac_covers_every_state_bit(self):
        """At kappa = 2 a flip of a carried state's high bit aborts for
        exactly the 12 GF(4) MAC keys with a != 0 (a = 0 tags nothing)."""
        class Feed:  # zero pad, then the MAC key bytes a and b
            def __init__(self, a, b):
                self.chunks = [bytes(2), bytes([a]), bytes([b])]

            def bytes(self, n):
                chunk = self.chunks.pop(0)
                assert len(chunk) == n
                return chunk

        gs = [lambda a, b1: (b"", b"\x5a\x00"), lambda b2, s: (s, b"")]
        aborted = set()
        for a in range(4):
            for b in range(4):
                prog = brotp_compile(gs, b"", 2, 2, Feed(a, b))
                _, carried = brotp_query(prog, 1, b"")
                c0, c1 = decode_payload(carried)
                tampered = encode_payload(bytes([c0[0] ^ 0x80]) + c0[1:], c1)
                if brotp_query(prog, 2, b"", tampered) is None:
                    aborted.add((a, b))
        assert aborted == {(a, b) for a in range(1, 4) for b in range(4)}

    def test_state_ciphertext_uniform(self):
        from scipy.stats import chisquare

        gs = toy_rounds(5)
        counts = np.zeros(256)
        for t in range(10_000):
            prog = brotp_compile(gs, b"\x00", 16, 1,
                                 np.random.default_rng(2000 + t))
            _, carried = brotp_query(prog, 1, b"0")
            c0, _ = decode_payload(carried)
            counts[c0[0]] += 1
        assert chisquare(counts).pvalue > 1e-4


def _replay_round2(prog):
    """Rounds 1 and 2 played in order, then round 2 again with its own
    carried state: the answers."""
    out1 = prog.query(1, b"0")
    _, carried = decode_payload(out1)
    return [out1, prog.query(2, b"0", carried),
            prog.query(2, b"0", carried)]


class TestSimulator:
    def test_honest_adversary_identical_messages(self):
        for seed in range(4):
            gs = toy_rounds(seed)
            for bits in range(8):
                inputs = [b"1" if (bits >> i) & 1 else b"0" for i in range(3)]
                prog = brotp_compile(gs, b"\x01", 16, 1,
                                     np.random.default_rng(31))
                real = run_honest_chain(prog, inputs)
                sim = brotp_simulator(BrOtpIdeal(gs, b"\x01"), 3, 16, 1,
                                      np.random.default_rng(32))
                got = []
                carried = b""
                for i, b_i in enumerate(inputs, start=1):
                    out = sim.query(i, b_i, carried)
                    assert not is_abort(out)
                    m, carried = decode_payload(out)
                    got.append(m)
                assert got == real

    def test_forging_adversary_abort_rates_match(self):
        gs = toy_rounds(7)
        trials = 2000
        real_aborts = sim_aborts = 0
        for t in range(trials):
            rng_t = np.random.default_rng(5000 + t)
            delta = (rng_t.bytes(1)[0] % 255) + 1  # guaranteed nonzero
            prog = brotp_compile(gs, b"\x00", 16, 1,
                                 np.random.default_rng(6000 + t))
            _, carried = brotp_query(prog, 1, b"0")
            c0, c1 = decode_payload(carried)
            bad = encode_payload(bytes([c0[0] ^ delta]), c1)
            if brotp_query(prog, 2, b"0", bad) is None:
                real_aborts += 1
            sim = brotp_simulator(BrOtpIdeal(gs, b"\x00"), 3, 16, 1,
                                  np.random.default_rng(7000 + t))
            out1 = sim.query(1, b"0")
            m, carried_s = decode_payload(out1)
            c0s, c1s = decode_payload(carried_s)
            bad_s = encode_payload(bytes([c0s[0] ^ delta]), c1s)
            if is_abort(sim.query(2, b"0", bad_s)):
                sim_aborts += 1
        # both worlds abort with probability >= 1 - 2^-16; rates must agree
        assert real_aborts >= trials - 2
        assert sim_aborts >= trials - 2

    @pytest.mark.parametrize("misuse,want", [
        (lambda prog: [prog.query(1, b"0"), prog.query(1, b"0")], "ff03"),
        (lambda prog: [prog.query(2, b"0")], "ff01"),
        (lambda prog: [prog.query(4, b"0")], "ff02"),
        (_replay_round2, "ff03"),
    ], ids=["round1-replayed", "round2-first", "round4-of-3",
            "round2-replayed"])
    def test_misuse_answered_as_the_chain_answers(self, misuse, want):
        """The simulator is the chain over simulated rounds, so each misuse
        gets the chain's abort bytes, and every query after it ``absorbed``;
        a different abort would tell the two worlds apart with certainty."""
        gs = toy_rounds(6)
        for prog in (brotp_compile(gs, b"\x00", 16, 1,
                                   np.random.default_rng(41)),
                     brotp_simulator(BrOtpIdeal(gs, b"\x00"), 3, 16, 1,
                                     np.random.default_rng(41))):
            assert misuse(prog)[-1] == bytes.fromhex(want)
            assert prog.query(1, b"0") == bytes.fromhex("ff04")

    def test_round2_first_forgeries_kappa2(self):
        """Round 2 played first with every (c0, tag) guess at kappa = 2: the
        chain runs round 2 on the 2^-kappa of the guesses its MAC accepts;
        the simulator's ideal refuses round 2 before round 1, so it answers
        exactly those with ``order`` and the rest with ``mac``, as the
        chain does."""
        gs = toy_rounds(6)
        forged = 0
        for c0 in range(256):
            for tag in range(4):
                guess = encode_payload(bytes([c0]), bytes([tag]))
                real = brotp_compile(gs, b"\x00", 2, 1,
                                     np.random.default_rng(43))
                sim = brotp_simulator(BrOtpIdeal(gs, b"\x00"), 3, 2, 1,
                                      np.random.default_rng(43))
                out = real.query(2, b"0", guess)
                forged += not is_abort(out)
                assert sim.query(2, b"0", guess) == abort_message(
                    "mac" if is_abort(out) else "order")
                assert not is_abort(out) or out == abort_message("mac")
        assert forged == 256

    def test_transcript_tv_exhaustive_kappa2(self):
        """Exact transcript-distribution comparison, enumerating all keys and
        pads at kappa=2 for a 2-round, 1-bit-domain program under every
        single-shot tamper strategy.  The total variation must be at most
        2^{-kappa+1}."""
        def g1(a, b1):
            return bytes([b1[0] & 1]), bytes([3 * (b1[0] & 1) + 1])

        def g2(b2, s):
            return bytes([(s[0] + (b2[0] & 1)) & 1]), b""

        gs = [g1, g2]
        kappa = 2
        # state is 1 byte but the MAC works on kappa-bit blocks; enumerate
        # pads over the byte and MAC keys over GF(4)^2
        strategies = [(0, 0)] + [(d0, d1) for d0 in range(4) for d1 in range(4)
                                 if (d0, d1) != (0, 0)]
        for b1 in (b"\x00", b"\x01"):
            for b2 in (b"\x00", b"\x01"):
                for d0, d1 in strategies:
                    real = {}
                    simd = {}
                    total = 0
                    for pad in range(256):
                        for a in range(4):
                            for b in range(4):
                                total += 1
                                weight = Fraction(1, 256 * 16)
                                key = (pad, a, b)
                                real_t = _run_tampered(
                                    gs, b1, b2, d0, d1, key, kappa,
                                    true_state=True)
                                sim_t = _run_tampered(
                                    gs, b1, b2, d0, d1, key, kappa,
                                    true_state=False)
                                real[real_t] = real.get(real_t, Fraction(0)) \
                                    + weight
                                simd[sim_t] = simd.get(sim_t, Fraction(0)) \
                                    + weight
                    tv = Fraction(0)
                    for k in set(real) | set(simd):
                        tv += abs(real.get(k, Fraction(0)) -
                                  simd.get(k, Fraction(0)))
                    tv /= 2
                    assert tv <= Fraction(1, 2 ** (kappa - 1)), (b1, b2, d0, d1)

    def test_transcript_tv_through_package_kappa2(self):
        """Criterion 9 on the package's own chain: the exact transcript
        distributions of ``brotp_compile``/``BrOtpProgram.query`` (real) and
        ``brotp_simulator`` (ideal) at kappa = 2, every pad and MAC key fed
        by a draw stub, under the honest strategy and every xor tamper
        (d0, d1) of the carried state's last MAC block and of the tag, with
        both first inputs (round 2's input only moves m2's parity).

        The transcript is what the receiver sees: m1, the carried
        ciphertext and tag, then m2 or the abort.  The simulator's
        substitute state enters only through its xor with the pad, so one
        substitute (zero) with every pad is its exact distribution.  A
        tamper passes for exactly the one a with a * d0 = d1 when d0 != 0,
        and never when only the tag moves; so the worlds are equal, except
        by exactly 1/4 (within criterion 9's 2^(1-kappa)) where a passing
        tamper changes m2."""
        def g1(a, b1):
            return bytes([b1[0] & 1]), bytes([3 * (b1[0] & 1) + 1])

        def g2(b2, s):
            return bytes([(s[0] + (b2[0] & 1)) & 1]), b""

        gs = [g1, g2]
        strategies = [(d0, d1) for d0 in range(4) for d1 in range(4)]
        inputs = [(b1, b"\x01") for b1 in (b"\x00", b"\x01")]
        counts = {(world, b, d): {} for world in ("real", "sim")
                  for b in inputs for d in strategies}
        for pad in range(256):
            for a in range(4):
                for b in range(4):
                    key = [bytes([pad]), bytes([a]), bytes([b])]
                    for b1, b2 in inputs:
                        draws = _Draws(*key)
                        real = brotp_compile(gs, None, 2, 1, draws)
                        assert not draws.chunks
                        draws = _Draws(*key, b"\x00")
                        ideal = BrOtpIdeal(gs, None)
                        sim = brotp_simulator(ideal, 2, 2, 1, draws)
                        for world, prog in (("real", real), ("sim", sim)):
                            m1, carried = decode_payload(prog.query(1, b1))
                            c0, tag = decode_payload(carried)
                            # the simulated rounds share one ideal
                            played = dict(vars(ideal))
                            for d0, d1 in strategies:
                                vars(ideal).update(played, evaluated=list(
                                    played["evaluated"]))
                                out = _after_round1(prog).query(
                                    2, b2, encode_payload(
                                        bytes([c0[0] ^ d0]),
                                        bytes([tag[0] ^ d1])))
                                seen = (m1, c0, tag, out if is_abort(out)
                                        else decode_payload(out)[0])
                                n = counts[(world, (b1, b2), (d0, d1))]
                                n[seen] = n.get(seen, 0) + 1
                        assert not draws.chunks
        for b1, b2 in inputs:
            _, s1 = g1(None, b1)
            for d0, d1 in strategies:
                real = counts[("real", (b1, b2), (d0, d1))]
                sim = counts[("sim", (b1, b2), (d0, d1))]
                tv = Fraction(sum(abs(real.get(t, 0) - sim.get(t, 0))
                                  for t in set(real) | set(sim)),
                              2 * 256 * 16)
                changes = g2(b2, bytes([s1[0] ^ d0])) != g2(b2, s1)
                want = Fraction(1, 4) if d0 and changes else 0
                assert tv == want <= Fraction(1, 2), (b1, b2, d0, d1, tv)
                if (d0, d1) == (0, 0):  # the honest chain never aborts
                    assert {seen[3] for seen in real} == {g2(b2, s1)[0]}


def _after_round1(prog):
    """An independent copy of a program whose round 1 has been played, as a
    replay of the same keys up to round 1 would be; a simulator's rounds
    still share its one ideal functionality."""
    return _twin(prog, cotps=[_twin(c) for c in prog.cotps])


def _twin(obj, **fields):
    """A shallow copy of ``obj`` with ``fields`` replaced."""
    twin = object.__new__(type(obj))
    twin.__dict__.update(obj.__dict__, **fields)
    return twin


class _Draws:
    """An rng stub that hands out the given byte strings in order, each to
    a draw of its own length."""

    def __init__(self, *chunks):
        self.chunks = list(chunks)

    def bytes(self, n):
        chunk = self.chunks.pop(0)
        assert len(chunk) == n
        return chunk


def _run_tampered(gs, b1, b2, d0, d1, key, kappa, true_state):
    """One 2-round interaction with a fixed xor-tamper on the carried data.

    With ``true_state`` the answer in round 2 uses the (possibly corrupted)
    carried state as the real program would; otherwise the true internal
    state is used regardless, as the ideal functionality behind the
    simulator would.  The transcript omits the uniformly-padded ciphertext
    (identically distributed in both worlds by construction) and keeps the
    observable (m1, m2-or-abort).
    """
    pad, a, b = key
    m1, s1 = gs[0](None, b1)
    c0 = s1[0] ^ pad
    # MAC over the two kappa-bit halves of the byte (Horner)
    blocks = [(c0 >> 2) & 3, c0 & 3]
    acc = 0
    for blk in blocks:
        acc = gf_mul(acc ^ blk, a, kappa)
    c1 = acc ^ b
    c0_t, c1_t = c0 ^ d0, c1 ^ d1
    blocks_t = [(c0_t >> 2) & 3, c0_t & 3]
    acc = 0
    for blk in blocks_t:
        acc = gf_mul(acc ^ blk, a, kappa)
    ok = (acc ^ b) == c1_t
    if not ok:
        return (m1, "abort")
    s_used = bytes([c0_t ^ pad]) if true_state else s1
    m2, _ = gs[1](b2, s_used)
    return (m1, m2)
