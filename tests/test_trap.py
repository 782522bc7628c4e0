"""Trap-scheme tests: construction, round trips, trap firing, attack
classification against brute force, and the security bound."""

import copy
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from scipy.stats import chisquare

from qotp_lab import denseops as dn
from qotp_lab import rng as rngmod
from qotp_lab import trap as trapmod
from qotp_lab.backends import StateVector, TableauState
from qotp_lab.css import build_steane, build_toy_code, concatenate
from qotp_lab.gf2 import dot
from qotp_lab.paulis import PauliOperator, Permutation, random_permutations
from qotp_lab.trap import (AttackClassification, TrapCode, TrapTable,
                           attack_counts, authenticate_register,
                           classify_masks, classify_pauli_attack,
                           count_nontrivial, estimate_attack_security,
                           exact_attack_probabilities, random_pauli,
                           sample_auth_key, sample_trap_code,
                           sample_trap_tables, verify_and_decode,
                           wilson_interval)

STEANE = build_steane()
TOY = build_toy_code()
D9 = concatenate(STEANE, 2)
# the order of ``exact_attack_probabilities``
OUTCOMES = ("reject", "trivial_accept", "nontrivial_accept")


def identity_trap(base):
    return TrapCode(base, Permutation(3 * base.n, tuple(range(3 * base.n))))


class TestBuild:
    def test_identity_pi_steane_encoding(self):
        trap = identity_trap(STEANE)
        t = TableauState(0)
        data = t.append_qubits(1)[0]
        ids = authenticate_register(t, trap, PauliOperator.identity(21), data)
        # traps: positions 7..13 must be |0>, 14..20 must be |+>
        for p in range(7, 14):
            p0, p1 = t.z_probabilities(ids[p])
            assert p0 == 1.0
        for p in range(14, 21):
            assert t.z_probabilities(ids[p]) == (0.5, 0.5)
        rho = t.density_of([ids[p] for p in range(7, 10)])
        assert np.allclose(rho, np.diag([1, 0, 0, 0, 0, 0, 0, 0]), atol=1e-12)

    def test_trap_code_is_css(self):
        rng = np.random.default_rng(1)
        trap = sample_trap_code(STEANE, rng)
        assert trap.n == 21 and trap.base.d == 3
        # X checks: embedded base rows plus the |+> trap singletons; Z
        # checks: embedded base rows plus the |0> trap singletons
        hx = trap.hx_rows + tuple(1 << p for p in trap.plus_trap_positions)
        hz = trap.hz_rows + tuple(1 << p for p in trap.zero_trap_positions)
        assert len(hx) == 10 and len(hz) == 10
        assert all(dot(rx, rz) == 0 for rx in hx for rz in hz)
        assert all(dot(trap.logical_x, rz) == 0 for rz in hz)
        assert all(dot(trap.logical_z, rx) == 0 for rx in hx)
        assert dot(trap.logical_x, trap.logical_z) == 1
        assert trap.zero_mask == sum(hz[3:]) and trap.plus_mask == sum(hx[3:])

    def test_base_word_inverts_embedding(self):
        rng = np.random.default_rng(3)
        trap = sample_trap_code(STEANE, rng)
        for word in range(1 << 7):
            assert trap.base_word(trap.embed_base_mask(word)) == word
        assert trap.base_word(trap.zero_mask | trap.plus_mask) == 0

    def test_reduced_density_matches_bare_encoding(self):
        rng = np.random.default_rng(2)
        trap = sample_trap_code(STEANE, rng)
        t = TableauState(0)
        data = t.append_qubits(1)[0]
        ids = authenticate_register(t, trap, PauliOperator.identity(21), data)
        base_ids = [ids[p] for p in trap.base_positions][:4]
        t2 = TableauState(0)
        d2 = t2.append_qubits(1)[0]
        ids2 = []
        fresh = t2.append_qubits(6)
        it = iter(fresh)
        ids2 = [d2] + list(fresh)
        for g in STEANE.encoder.gates:
            t2.apply_gate(g[0], *[ids2[w] for w in g[1:]])
        assert np.allclose(t.density_of(base_ids),
                           t2.density_of(ids2[:4]), atol=1e-12)

    def test_wrong_size_permutation(self):
        with pytest.raises(ValueError):
            TrapCode(STEANE, Permutation(20, tuple(range(20))))


class TestKeys:
    def test_determinism(self):
        k1 = sample_auth_key(STEANE, ["a", "b"], np.random.default_rng(42))
        k2 = sample_auth_key(STEANE, ["a", "b"], np.random.default_rng(42))
        assert k1.trap.pi == k2.trap.pi
        assert k1.pauli_keys == k2.pauli_keys

    def test_uniform_marginals(self):
        rng = np.random.default_rng(7)
        counts = np.zeros(21)
        trials = 10_000
        for _ in range(trials):
            p = random_pauli(21, rng)
            for j in range(21):
                counts[j] += (p.x >> j) & 1
        for j in range(21):
            assert abs(counts[j] / trials - 0.5) < 0.02

    def test_register_independence(self):
        rng = np.random.default_rng(9)
        table = np.zeros((2, 2))
        for _ in range(10_000):
            key = sample_auth_key(TOY, ["r1", "r2"], rng)
            b1 = key.pauli_keys["r1"].x & 1
            b2 = key.pauli_keys["r2"].x & 1
            table[b1, b2] += 1
        expected = table.sum() / 4
        stat = ((table - expected) ** 2 / expected).sum()
        # chi-square with 1 dof at 99.9%: 10.83
        assert stat < 10.83


class TestRoundTrip:
    @pytest.mark.parametrize("base", [TOY, STEANE])
    def test_authenticate_then_verify(self, base):
        rng = np.random.default_rng(11)
        for _ in range(10):
            key = sample_auth_key(base, ["r"], rng)
            trap, pk = key.trap, key.pauli_keys["r"]
            t = TableauState(0)
            data = t.append_qubits(1)[0]
            t.apply_gate("H", data)  # |+> survives the trip
            ids = authenticate_register(t, trap, pk, data)
            ok, out = verify_and_decode(t, trap, pk, ids, rng)
            assert ok
            assert np.allclose(t.density_of([out]),
                               np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)

    def test_one_time_pad_masks_state(self):
        # averaged over keys the register is maximally mixed
        rng = np.random.default_rng(13)
        trap = sample_trap_code(TOY, rng)
        acc = np.zeros((8, 8), dtype=complex)
        trials = 256
        for _ in range(trials):
            t = StateVector(0)
            data = t.append_qubits(1)[0]
            ids = authenticate_register(t, trap, random_pauli(3, rng), data)
            acc += t.density_of(ids)
        assert np.allclose(acc / trials, np.eye(8) / 8, atol=0.05)

    def test_x_on_zero_trap_rejects(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            key = sample_auth_key(STEANE, ["r"], rng)
            trap, pk = key.trap, key.pauli_keys["r"]
            t = TableauState(0)
            data = t.append_qubits(1)[0]
            ids = authenticate_register(t, trap, pk, data)
            victim = trap.zero_trap_positions[3]
            t.apply_gate("X", ids[victim])
            ok, _ = verify_and_decode(t, trap, pk, ids, rng)
            assert not ok

    def test_z_on_plus_trap_rejects(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            key = sample_auth_key(STEANE, ["r"], rng)
            trap, pk = key.trap, key.pauli_keys["r"]
            t = TableauState(0)
            data = t.append_qubits(1)[0]
            ids = authenticate_register(t, trap, pk, data)
            victim = trap.plus_trap_positions[0]
            t.apply_gate("Z", ids[victim])
            ok, _ = verify_and_decode(t, trap, pk, ids, rng)
            assert not ok


class TestClassification:
    def test_identity_trivial(self):
        trap = identity_trap(STEANE)
        cls = classify_pauli_attack(trap, PauliOperator.identity(21))
        assert cls.verdict == "trivial_accept"

    def test_z_on_zero_trap_is_trivial_accept(self):
        trap = identity_trap(STEANE)
        q = PauliOperator.single(21, trap.zero_trap_positions[0], "Z")
        cls = classify_pauli_attack(trap, q)
        assert cls.verdict == "trivial_accept"
        assert cls.x_only_verdict == "trivial_accept"

    def test_weight_two_never_nontrivial(self):
        rng = np.random.default_rng(23)
        pairs = [(i, j) for i in range(21) for j in range(i + 1, 21)]
        picked = rng.choice(len(pairs), size=60, replace=False)
        for trial in range(40):
            trap = sample_trap_code(STEANE, rng)
            for q1 in dn.all_paulis(1):
                if q1.weight() == 0:
                    continue
                for j in range(21):
                    cls = classify_pauli_attack(trap, PauliOperator.from_masks(
                        21, q1.x << j, q1.z << j))
                    assert cls.verdict != "nontrivial_accept"
            for pidx in picked[:10]:
                i, j = pairs[pidx]
                for q2 in dn.all_paulis(2):
                    if q2.weight() != 2:
                        continue
                    cls = classify_pauli_attack(trap, PauliOperator.from_masks(
                        21, (q2.x & 1) << i | (q2.x >> 1) << j,
                        (q2.z & 1) << i | (q2.z >> 1) << j))
                    assert cls.verdict != "nontrivial_accept"

    def test_toy_classification_matches_brute_force(self):
        """For the 3-qubit toy trap, compare against density-matrix simulation
        over all 64 Paulis and all 6 permutations."""
        for perm in permutations(range(3)):
            trap = TrapCode(TOY, Permutation(3, perm))
            for q in dn.all_paulis(3):
                cls = classify_pauli_attack(trap, q)
                sv = StateVector(0)
                data = sv.append_qubits(1)[0]
                sv.apply_gate("H", data)
                sv.apply_gate("K", data)  # |0>+i|1>: sensitive to X, Y and Z
                ref = copy.deepcopy(sv)
                ids = authenticate_register(
                    sv, trap, PauliOperator.identity(3), data)
                sv.apply_pauli(q, ids)
                # deterministic verify via branch probabilities
                sv.apply_pauli(PauliOperator.identity(3), ids)
                for g in trap.decoding_ops(ids):
                    sv.apply_gate(*g)
                dpos = trap.data_position()
                checked = [ids[p] for p in range(3) if p != dpos]
                # the exact all-zero outcome of the checked qubits
                paccept, state = next(
                    ((p, post) for bits, p, post in sv.joint_outcomes(checked)
                     if bits == 0), (0.0, None))
                if cls.verdict == "reject":
                    assert paccept < 1e-12
                else:
                    assert abs(paccept - 1.0) < 1e-12
                    rho = state.density_of([ids[dpos]])
                    want = ref.density_of([data])
                    if cls.verdict == "trivial_accept":
                        assert np.allclose(rho, want, atol=1e-9)
                    else:
                        g = dn.pauli_matrix(cls.induced_logical)
                        assert np.allclose(rho, g @ want @ g.conj().T,
                                           atol=1e-9)

    @pytest.mark.parametrize("base,attacks", [(STEANE, 40),
                                              (concatenate(STEANE, 2), 8)])
    def test_accepted_attacks_match_state_level(self, base, attacks):
        """Accepted attacks built from a logical, random stabilizers and
        random trap stabilizers: the tableau run accepts, and the data
        comes out as g rho g^dagger for the classified induced logical."""
        rng = np.random.default_rng(29)
        inputs = {"0": [], "+": [("H",)], "+i": [("H",), ("K",)]}
        for trial in range(attacks):
            key = sample_auth_key(base, ["r"], rng)
            trap, pk = key.trap, key.pauli_keys["r"]
            a, b = trial & 1, (trial >> 1) & 1
            x = trap.logical_x if a else 0
            z = trap.logical_z if b else 0
            for row in trap.hx_rows:
                x ^= row * int(rng.integers(0, 2))
            for row in trap.hz_rows:
                z ^= row * int(rng.integers(0, 2))
            for p in trap.plus_trap_positions:
                x |= int(rng.integers(0, 2)) << p
            for p in trap.zero_trap_positions:
                z |= int(rng.integers(0, 2)) << p
            attack = PauliOperator.from_masks(trap.n, x, z)
            cls = classify_pauli_attack(trap, attack)
            assert cls.verdict == ("nontrivial_accept" if a or b
                                   else "trivial_accept")
            g = cls.induced_logical
            assert (g.x, g.z) == (a, b)
            gm = dn.pauli_matrix(g)
            for gates in inputs.values():
                t = TableauState(0)
                data = t.append_qubits(1)[0]
                for (name,) in gates:
                    t.apply_gate(name, data)
                rho = t.density_of([data])
                ids = authenticate_register(t, trap, pk, data)
                t.apply_pauli(attack, ids)
                ok, out = verify_and_decode(t, trap, pk, ids, rng)
                assert ok
                assert np.allclose(t.density_of([out]),
                                   gm @ rho @ gm.conj().T, atol=1e-12)

    def test_key_reuse_two_registers(self):
        # attacks on one register never change the other's accept status
        rng = np.random.default_rng(31)
        for _ in range(5):
            key = sample_auth_key(STEANE, ["r1", "r2"], rng)
            trap = key.trap
            t = TableauState(0)
            d1 = t.append_qubits(1)[0]
            ids1 = authenticate_register(t, trap, key.pauli_keys["r1"], d1)
            d2 = t.append_qubits(1)[0]
            ids2 = authenticate_register(t, trap, key.pauli_keys["r2"], d2)
            t.apply_pauli(random_pauli(21, rng), ids1)  # attack register 1
            ok2, _ = verify_and_decode(
                t, trap, key.pauli_keys["r2"], ids2, rng)
            assert ok2


def _table_ints(table, s):
    """Row s of a TrapTable as Python ints, in TrapCode's field order."""
    def whole(words):
        return sum(int(w) << (64 * k) for k, w in enumerate(words))
    return (whole(table.zero[s]), whole(table.plus[s]),
            tuple(map(whole, table.hz_rows[s])),
            tuple(map(whole, table.hx_rows[s])),
            whole(table.logical_x[s]), whole(table.logical_z[s]))


def _code_ints(trap):
    return (trap.zero_mask, trap.plus_mask, trap.hz_rows, trap.hx_rows,
            trap.logical_x, trap.logical_z)


class TestBatchedSampling:
    """The batched sampler against S sequential scalar draws."""

    @staticmethod
    def _scalar_fisher_yates(size, rng):
        # one rng.integers call per swap: the reference the one-call
        # array draw must reproduce
        arr = list(range(size))
        for i in range(size - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            arr[i], arr[j] = arr[j], arr[i]
        return tuple(arr)

    @pytest.mark.parametrize("make", [
        lambda: rngmod.stream(4, "trap-security"),
        lambda: np.random.default_rng(4)], ids=["philox", "pcg64"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 21, 147])
    def test_permutations_match_scalar_draws(self, make, size):
        ref, one, batch = make(), make(), make()
        want = [self._scalar_fisher_yates(size, ref) for _ in range(5)]
        assert [Permutation.random(size, one).mapping
                for _ in range(5)] == want
        assert [tuple(p) for p in
                random_permutations(size, 5, batch).tolist()] == want
        tail = ref.integers(0, 2 ** 62)
        assert one.integers(0, 2 ** 62) == tail
        assert batch.integers(0, 2 ** 62) == tail

    @pytest.mark.parametrize("make", [
        lambda: rngmod.stream(5, "distance"),
        lambda: np.random.default_rng(5)], ids=["philox", "pcg64"])
    @pytest.mark.parametrize("base", [TOY, STEANE, D9],
                             ids=["toy", "steane", "d9"])
    def test_tables_match_sequential_trap_codes(self, make, base,
                                                monkeypatch):
        # chunks of 3 rows: the chunked stream is the unchunked one
        monkeypatch.setattr(trapmod, "_CHUNK", 3)
        a, b = make(), make()
        tables = list(sample_trap_tables(base, 8, a))
        assert [len(t.masks) for t in tables] == [3, 3, 2]
        codes = [sample_trap_code(base, b) for _ in range(8)]
        rows = [_table_ints(t, s) for t in tables for s in range(len(t.masks))]
        assert rows == [_code_ints(c) for c in codes]
        assert a.integers(0, 2 ** 62) == b.integers(0, 2 ** 62)


class TestBatchedClassification:
    """``TrapTable`` verdicts against the scalar ``classify_masks`` for every
    (permutation, attack) pair."""

    @staticmethod
    def _attacks(base, codes, rng, count):
        """Random X-, Z- and Y-bearing attacks of low weight, plus each
        code's logicals dressed with its trap stabilizers (Z on |0> traps, X
        on |+> traps), which that code accepts nontrivially, and with one
        trap flip (X on a |0> trap, Z on a |+> trap), which it rejects."""
        n3 = 3 * base.n
        attacks = []
        for _ in range(count):
            support = rng.choice(n3, size=int(rng.integers(1, 4)),
                                 replace=False)
            x = z = 0
            for p in support:
                letter = int(rng.integers(1, 4))
                x |= (letter & 1) << int(p)
                z |= (letter >> 1) << int(p)
            attacks.append((x, z))
        for trap in codes:
            dress_z = trap.zero_mask & random_pauli(n3, rng).z
            dress_x = trap.plus_mask & random_pauli(n3, rng).x
            flip_x = 1 << trap.zero_trap_positions[0]
            flip_z = 1 << trap.plus_trap_positions[0]
            attacks += [(trap.logical_x | dress_x, dress_z),
                        (dress_x, trap.logical_z | dress_z),
                        (trap.logical_x | dress_x, trap.logical_z),
                        (trap.logical_x | flip_x, dress_z),
                        (dress_x, trap.logical_z | flip_z)]
        return attacks

    @pytest.mark.parametrize("base,perms,count", [
        (TOY, 6, 0), (STEANE, 12, 150), (D9, 4, 60)],
        ids=["toy", "steane", "d9"])
    def test_verdicts_match_classify_masks(self, base, perms, count,
                                           monkeypatch):
        rng = np.random.default_rng(61)
        n3 = 3 * base.n
        mappings = random_permutations(n3, perms, rng)
        codes = [TrapCode(base, Permutation(n3, tuple(m)))
                 for m in mappings.tolist()]
        if base is TOY:
            attacks = [(x, z) for x in range(8) for z in range(8)]
        else:
            attacks = self._attacks(base, codes, rng, count)
        want = np.array([[classify_masks(c, x, z)[0] == "nontrivial_accept"
                          for x, z in attacks] for c in codes])
        assert want.any() and not want.all()
        got = np.array([count_nontrivial(
            [TrapTable.build(base, mappings[s:s + 1])], attacks, n3)
            for s in range(perms)])
        assert (got == want).all()
        # blocks of 7 pairs split both the attacks and the permutations
        monkeypatch.setattr(trapmod, "_BLOCK", 7)
        table = TrapTable.build(base, mappings)
        assert (count_nontrivial([table], attacks, n3)
                == want.sum(axis=0)).all()

    def test_toy_table_has_no_check_rows(self):
        table = TrapTable.build(TOY, random_permutations(
            3, 5, np.random.default_rng(2)))
        assert table.hz_rows.shape == table.hx_rows.shape == (5, 0, 1)


class TestSecurityEstimation:
    def test_identity_attack_eps_zero(self):
        rng = np.random.default_rng(37)
        est = estimate_attack_security(
            STEANE, PauliOperator.identity(21), 200, rng)
        assert est.eps_hat == 0.0

    def test_weight_three_bound(self):
        rng = np.random.default_rng(41)
        attack = PauliOperator.from_masks(21, 0b111, 0)
        est = estimate_attack_security(STEANE, attack, 20_000, rng)
        assert est.bound == pytest.approx((2 / 3) ** 1.5)
        assert est.ci_hi < est.bound

    def test_transversal_x_placement_exact(self):
        rng = np.random.default_rng(43)
        positions = list(range(7))
        mask = sum(1 << p for p in positions)
        attack = PauliOperator.from_masks(21, mask, 0)
        exact = exact_attack_probabilities(STEANE, 7)[2]
        assert exact == pytest.approx(246 / 116280)
        est = estimate_attack_security(STEANE, attack, 50_000, rng)
        assert est.ci_lo <= exact <= est.ci_hi

    @staticmethod
    def _brute_placement(base, w):
        """The (reject, trivial accept, nontrivial accept) counts of a
        weight-w X attack, by listing every set of w slots it can land on
        under the identity layout (base block, then |0> traps, then |+>
        traps) and classifying each with ``classify_masks``."""
        trap = identity_trap(base)
        verdicts = [classify_masks(trap, sum(1 << s for s in slots), 0)[0]
                    for slots in combinations(range(3 * base.n), w)]
        return tuple(map(verdicts.count, OUTCOMES))

    @pytest.mark.parametrize("base,weights", [(TOY, range(4)),
                                              (STEANE, range(8))],
                             ids=["toy", "steane"])
    def test_placement_matches_brute_force(self, base, weights):
        for w in weights:
            counts = self._brute_placement(base, w)
            assert attack_counts(base, w) == counts, w
            assert exact_attack_probabilities(base, w) == tuple(
                c / comb(3 * base.n, w) for c in counts), w

    def test_placement_distance_nine_pinned(self):
        # computed once by enumerating all 2^24 coset words one by one
        assert exact_attack_probabilities(D9, 9)[2] == 3.489539973495428e-11
        assert sum(attack_counts(D9, 9)) == comb(147, 9)

    def test_exact_enumeration_toy(self):
        # every X attack on the toy trap against all 6 permutations
        for x in range(8):
            attack = PauliOperator.from_masks(3, x, 0)
            verdicts = [classify_pauli_attack(
                TrapCode(TOY, Permutation(3, p)), attack).verdict
                for p in permutations(range(3))]
            assert exact_attack_probabilities(TOY, attack.weight()) == \
                tuple(verdicts.count(v) / 6 for v in OUTCOMES), x

    def test_wilson_interval_sane(self):
        phat, lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi and abs(phat - 0.5) < 1e-12

    @pytest.mark.parametrize("trials", [100, 500, 2000])
    def test_wilson_zero_hits_lower_bound_is_zero(self, trials):
        # centre - half cancels to ~1e-18 here instead of 0
        phat, lo, hi = wilson_interval(0, trials)
        assert phat == 0.0 and lo == 0.0 and 0.0 < hi < 1.0
