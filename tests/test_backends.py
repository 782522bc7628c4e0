"""Backend equivalence and contract tests.

The statevector backend is the reference; the tableau and stabilizer-sum
backends must reproduce its reduced density matrices on random Clifford
circuits, and the sum backend additionally on circuits with injected
T-type magic.
"""

import copy
import hashlib

import numpy as np
import pytest

from qotp_lab import denseops as dn
from qotp_lab.backends import StabilizerSum, StateVector, TableauState
from qotp_lab.backends.frame import FrameReplay, Recorder
from qotp_lab.gf2 import rref
from qotp_lab.paulis import PauliOperator


def random_clifford_circuit(n, count, rng, include=("X", "Y", "Z", "H", "K", "CNOT")):
    gates = []
    for _ in range(count):
        name = include[int(rng.integers(0, len(include)))]
        if name == "CNOT":
            if n < 2:
                continue
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", int(c), int(t)))
        else:
            gates.append((name, int(rng.integers(0, n))))
    return gates


def run_circuit(state, gates):
    for g in gates:
        state.apply_gate(*g)


def frame_arrays(sm):
    """A stabilizer sum's frame as uint8 bit arrays: (A (n x k), Q (k x k),
    d (k, as int64), b (terms x n), e (terms x k))."""
    def bit_rows(values, width):
        return np.array([[v >> i & 1 for i in range(width)] for v in values],
                        dtype=np.uint8).reshape(len(values), width)

    d = bit_rows([sm.d0, sm.d1], sm.k).astype(np.int64)
    return (bit_rows(sm.cols, sm.n).T,
            bit_rows(sm.Q, sm.k), d[0] + 2 * d[1], bit_rows(sm.bs, sm.n),
            bit_rows(sm.es, sm.k))


def sum_amplitudes(sm):
    """A stabilizer sum's nonzero amplitudes keyed by basis index (row 0
    most significant), summed into a dictionary term by term over all 2^k
    points of each term: the dense oracle."""
    A, Q, d, bs, es = frame_arrays(sm)
    k = sm.k
    out = {}
    us = np.arange(1 << k, dtype=np.int64)
    ubits = ((us[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    quad = np.zeros(1 << k, dtype=np.int64)
    for m in range(k):
        for w in range(m + 1, k):
            if Q[m, w]:
                quad += ubits[:, m] * ubits[:, w]
    xs = (ubits @ A.T.astype(np.int64)) & 1
    ipow = np.array([1, 1j, -1, -1j], dtype=complex)
    for t in range(sm.num_terms):
        phase = (ubits.astype(np.int64) @ ((d + 2 * es[t]) & 3)) \
            + 2 * quad
        amps = sm.coeffs[t] * (2.0 ** (-k / 2)) * ipow[phase & 3]
        for row, amp in zip(xs ^ bs[t][None, :], amps):
            idx = 0
            for b in row:
                idx = (idx << 1) | int(b)
            out[idx] = out.get(idx, 0.0) + amp
    return {i: a for i, a in out.items() if abs(a) > 1e-14}


def dense_vector(sm):
    """A stabilizer sum's 2^n amplitudes from the oracle above."""
    vec = np.zeros(1 << sm.n, dtype=complex)
    for idx, amp in sum_amplitudes(sm).items():
        vec[idx] = amp
    return vec


class TestGateSemantics:
    def test_h_on_zero(self):
        s = StateVector(1)
        s.apply_gate("H", 0)
        assert np.allclose(s.amplitudes(), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_k_on_plus(self):
        # K|+> = (|0> + i|1>)/sqrt(2)
        s = StateVector(1)
        s.apply_gate("H", 0)
        s.apply_gate("K", 0)
        assert np.allclose(s.amplitudes(),
                           [1 / np.sqrt(2), 1j / np.sqrt(2)])

    def test_gate_matrices_against_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gates = random_clifford_circuit(3, 10, rng)
            s = StateVector(3)
            run_circuit(s, gates)
            want = dn.circuit_matrix(3, gates) @ \
                np.eye(8, dtype=complex)[:, 0]
            assert np.allclose(s.amplitudes(), want, atol=1e-12)

    def test_out_of_range_rejected(self):
        s = StateVector(2)
        with pytest.raises(Exception):
            s.apply_gate("H", 5)
        with pytest.raises(Exception):
            TableauState(2).apply_gate("CNOT", 0, 0)


class TestBackendEquivalence:
    @pytest.mark.parametrize("other", ["tab", "sum"])
    def test_random_5q_circuits_match_statevector(self, other):
        rng = np.random.default_rng(42)
        for trial in range(100):
            gates = random_clifford_circuit(5, 20, rng)
            sv = StateVector(5)
            alt = TableauState(5) if other == "tab" else StabilizerSum(5)
            run_circuit(sv, gates)
            run_circuit(alt, gates)
            keep = [0, 1, 2, 3, 4]
            assert np.allclose(sv.density_of(keep), alt.density_of(keep),
                               atol=1e-9), (trial, gates)

    def test_sum_backend_tracks_global_phase(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            gates = random_clifford_circuit(4, 16, rng)
            sv = StateVector(4)
            run_circuit(sv, gates)
            sm = StabilizerSum(4)
            run_circuit(sm, gates)
            assert np.allclose(dense_vector(sm), sv.amplitudes(), atol=1e-10)

    def test_measurement_correlations_bell(self):
        rng = np.random.default_rng(7)
        for cls in (StateVector, TableauState, StabilizerSum):
            for _ in range(20):
                s = cls(2)
                s.apply_gate("H", 0)
                s.apply_gate("CNOT", 0, 1)
                b0, p0 = s.measure(0, rng=rng)
                b1, p1 = s.measure(1, rng=rng)
                assert b0 == b1
                assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 1.0) < 1e-12

    def test_projective_repeat(self):
        rng = np.random.default_rng(11)
        for cls in (StateVector, TableauState, StabilizerSum):
            s = cls(3)
            s.apply_gate("H", 0)
            s.apply_gate("CNOT", 0, 1)
            s.apply_gate("H", 2)
            bit, _ = s.measure(1, rng=rng)
            again, p = s.measure(1, rng=rng)
            assert again == bit and abs(p - 1.0) < 1e-12

    def test_measure_statistics_plus_state(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(13)
        counts = [0, 0]
        for _ in range(10_000):
            s = TableauState(1)
            s.apply_gate("H", 0)
            bit, _ = s.measure(0, rng=rng)
            counts[bit] += 1
        assert chisquare(counts).pvalue > 1e-4

    def test_determinism_same_seed(self):
        for cls in (StateVector, TableauState, StabilizerSum):
            transcripts = []
            for _ in range(2):
                rng = np.random.default_rng(999)
                s = cls(4)
                gates = random_clifford_circuit(
                    4, 30, np.random.default_rng(5))
                run_circuit(s, gates)
                bits = [s.measure(q, rng=rng)[0] for q in range(4)]
                transcripts.append(bits)
            assert transcripts[0] == transcripts[1]


class TestPauliApplication:
    def test_apply_pauli_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gates = random_clifford_circuit(3, 8, rng)
            p = PauliOperator(3, int(rng.integers(0, 8)),
                              int(rng.integers(0, 8)), int(rng.integers(0, 4)))
            sv = StateVector(3)
            run_circuit(sv, gates)
            want = dn.pauli_matrix(p) @ sv.amplitudes()
            sv.apply_pauli(p, [0, 1, 2])
            assert np.allclose(sv.amplitudes(), want, atol=1e-12)
            sm = StabilizerSum(3)
            run_circuit(sm, gates)
            sm.apply_pauli(p, [0, 1, 2])
            assert np.allclose(dense_vector(sm), want, atol=1e-10)


class TestMagicInjection:
    def test_t_magic_density(self):
        sm = StabilizerSum(0)
        before = sm.num_terms
        ids = sm.inject_magic()
        assert sm.num_terms == 2 * before
        vec = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.allclose(sm.density_of(ids), np.outer(vec, vec.conj()),
                           atol=1e-9)
        assert np.allclose(dense_vector(sm), vec, atol=1e-9)

    def test_wide_frame_reads_one_qubit(self):
        """A sum with k = 23 reads its T magic qubit as |T><T| and half
        of a Bell pair as I/2, past the 2^20 amplitudes a dense
        reconstruction would need."""
        sm = StabilizerSum(44)
        for a in range(0, 44, 2):
            sm.apply_gate("H", a)
            sm.apply_gate("CNOT", a, a + 1)
        (t,) = sm.inject_magic()
        sm.apply_gate("H", t)
        sm.apply_gate("K", 3)
        sm.apply_gate("H", t)
        sm.canonicalize()
        assert sm.k == 23 and sm.num_terms == 2
        vec = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.abs(sm.density_of([t]) -
                      np.outer(vec, vec.conj())).max() < 1e-12
        assert np.abs(sm.density_of([3]) - np.eye(2) / 2).max() < 1e-12

    def test_rank_budget(self):
        sm = StabilizerSum(0)
        with pytest.raises(ValueError):
            for _ in range(11):
                sm.inject_magic()

    def test_clifford_after_t_matches_statevector(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            sm = StabilizerSum(3)
            sv = StateVector(3)
            tq = sm.inject_magic()[0]
            sv.append_amplitudes(
                np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
            gates = random_clifford_circuit(4, 14, rng)
            run_circuit(sm, gates)
            run_circuit(sv, gates)
            assert np.allclose(dense_vector(sm),
                               sv.amplitudes(), atol=1e-9), trial

    def test_measurement_with_interference(self):
        # measure T|+> in the X basis: P(+) = cos^2(pi/8)
        sm = StabilizerSum(0)
        q = sm.inject_magic()[0]
        sm.apply_gate("H", q)
        p0, p1 = sm.z_probabilities(q)
        assert abs(p0 - np.cos(np.pi / 8) ** 2) < 1e-12
        assert abs(p1 - np.sin(np.pi / 8) ** 2) < 1e-12

    def test_t_then_measure_collapse_posterior(self):
        rng = np.random.default_rng(3)
        sm = StabilizerSum(0)
        q = sm.inject_magic()[0]
        sm.apply_gate("H", q)
        bit, prob = sm.measure(q, rng=rng)
        rho = sm.density_of([q])
        want = np.zeros((2, 2))
        want[bit, bit] = 1.0
        assert np.allclose(rho, want, atol=1e-10)


class TestNormAndTerms:
    def test_norm_preserved_under_cliffords(self):
        rng = np.random.default_rng(31)
        sm = StabilizerSum(4)
        sm.inject_magic()
        sm.inject_magic()
        run_circuit(sm, random_clifford_circuit(6, 40, rng))
        vec = None
        total = 0.0
        for idx, a in sum_amplitudes(sm).items():
            total += abs(a) ** 2
        assert abs(total - 1.0) < 1e-6


class TestJointReads:
    def test_joint_densities_match_posteriors_bit_for_bit(self):
        """One stacked read gives each outcome's probability and kept
        density exactly as a posterior state and its ``density_of`` do."""
        rng = np.random.default_rng(43)
        for n in (5, 8, 11):
            s = StateVector(n)
            run_circuit(s, random_clifford_circuit(n, 6 * n, rng))
            s.apply_gate("T", 0)
            ids = [int(q) for q in rng.permutation(n)]
            measured, keep = ids[:3], ids[3:5]
            want = [(k, p, post.density_of(keep))
                    for k, p, post in s.joint_outcomes(measured)]
            live, probs, rhos = s.joint_densities(measured, keep)
            assert [(int(k), float(p)) for k, p in zip(live, probs)] == [
                (k, p) for k, p, _ in want]
            for a, (_, _, b) in zip(rhos, want):
                assert a.tobytes() == b.tobytes()

    def test_one_row_operations_refuse_a_stack(self):
        """A fork's stack (qubit 1 |+> and qubit 2 |1> on both rows) is
        refused, left as it was, by the reads and collapses of one run,
        which would otherwise normalise or reshape across rows."""
        s = StateVector(3)
        s.apply_gate("H", 0)
        s.apply_gate("H", 1)
        s.apply_gate("X", 2)
        _, _, stack = s.fork([0], [1.0], 0.0)
        before = stack._amps.copy()
        for call in (lambda: stack.measure(1, np.random.default_rng(1)),
                     lambda: stack.z_probabilities(1),
                     lambda: stack.discard([2]),
                     lambda: stack.density_of([1]),
                     lambda: stack.amplitudes()):
            with pytest.raises(ValueError, match="stack of 2 rows"):
                call()
        assert stack._amps.tobytes() == before.tobytes()
        row = stack.select(slice(1, 2))
        assert row.measure(2, np.random.default_rng(1)) == (1, 1.0)
        row.discard([2])
        assert np.allclose(row.density_of([1]), 0.5)

    def test_stabsum_measure_projects_once(self, monkeypatch):
        """A measurement projects the drawn outcome alone, once, after a
        single ``rng.random()`` draw."""
        calls = []
        project = StabilizerSum._project

        def counting(self, j, y, row):
            calls.append(y)
            return project(self, j, y, row)

        class CountingRng:
            def __init__(self, seed):
                self.gen = np.random.default_rng(seed)
                self.draws = 0

            def random(self):
                self.draws += 1
                return self.gen.random()

        monkeypatch.setattr(StabilizerSum, "_project", counting)
        sm = StabilizerSum(3)
        sm.apply_gate("H", 0)
        sm.inject_magic()
        sm.apply_gate("CNOT", 0, 1)
        rng = CountingRng(47)
        for q in (0, 1, 2):
            sm.measure(q, rng=rng)
        assert len(calls) == 3
        assert rng.draws == 3
        assert abs(sm._sq_norm() - 1) < 1e-12


class TestCapacity:
    def test_statevector_cap(self):
        s = StateVector(0)
        with pytest.raises(ValueError):
            s.append_qubits(25)

    def test_discard_reduces_statevector(self):
        rng = np.random.default_rng(41)
        s = StateVector(3)
        s.apply_gate("H", 0)
        s.apply_gate("CNOT", 0, 1)
        s.measure(1, rng=rng)
        s.discard([1])
        assert s.n == 2
        with pytest.raises(ValueError):
            s2 = StateVector(2)
            s2.apply_gate("H", 0)
            s2.apply_gate("CNOT", 0, 1)
            s2.discard([0])

    @pytest.mark.parametrize("backend", [StateVector, TableauState,
                                         StabilizerSum])
    def test_dead_id_raises_value_error(self, backend):
        """Every backend refuses an id that is not live the same way."""
        s = backend(2)
        s.measure(0, np.random.default_rng(3))
        s.discard([0])
        for call in (lambda: s.apply_gate("H", 0),
                     lambda: s.measure(0, np.random.default_rng(3)),
                     lambda: s.density_of([0]),
                     lambda: s.discard([0])):
            with pytest.raises(ValueError, match="0"):
                call()

    @pytest.mark.parametrize("backend", [StateVector, TableauState,
                                         StabilizerSum])
    def test_unknown_gate_raises_value_error(self, backend):
        """Every backend refuses a gate name outside its set the same way,
        and the state is left as it was."""
        s = backend(2)
        with pytest.raises(ValueError, match="unknown gate 'S'"):
            s.apply_gate("S", 0)
        assert s.z_probabilities(0) == (1.0, 0.0)

    @pytest.mark.parametrize("count", [0, 3, 6])
    def test_amplitude_count_not_a_power_of_two_raises(self, count):
        s = StateVector(1)
        with pytest.raises(ValueError, match="not a power of two"):
            s.append_amplitudes(np.ones(count, dtype=complex))
        assert s.n == 1 and s.amplitudes().tolist() == [1, 0]

    def test_tableau_expand(self):
        t = TableauState(2)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        ids = t.append_qubits(3)
        t.apply_gate("CNOT", 1, ids[0])
        rng = np.random.default_rng(1)
        b0, _ = t.measure(0, rng=rng)
        b1, _ = t.measure(1, rng=rng)
        b2, _ = t.measure(ids[0], rng=rng)
        assert b0 == b1 == b2


class FixedOutcome:
    """An rng stub that draws the outcome ``bit`` wherever it has weight:
    the tableau takes ``integers(0, 2)`` as the bit, the statevector and
    the stabilizer sum return 1 exactly when ``random() < p1``."""

    bit = 0

    def integers(self, lo, hi):
        return self.bit

    def random(self):
        return 0.25 if self.bit else 0.75


class TestKernelDifferential:
    """The tableau against the stabilizer sum, an independent backend, on
    random circuits past 12 qubits and across the tableau's capacity
    regrowth."""

    def test_same_public_callables(self):
        """The tableau exposes the backend contract with its block calls,
        ``z_probabilities``, and the two reads ``frame.py`` makes: ``copy``
        for the hand-over and ``stab_row`` for a measuring block's flip
        basis."""
        want = {"append_qubits", "discard", "apply_gate", "apply_pauli",
                "measure", "z_probabilities", "density_of", "copy",
                "stab_row", "apply_gates", "bell_measure",
                "measure_and_drop"}
        state = TableauState(3)
        assert {name for name in dir(state) if not name.startswith("_")
                and callable(getattr(state, name))} == want

    def test_random_circuits_match(self):
        """H/K/X/Z/CNOT circuits on 1-79 qubits that append qubits and
        measure (sometimes discarding the measured qubit): the same ids,
        bits and probabilities, then the same density of 4 kept qubits."""
        rng = np.random.default_rng(2024)
        fixed = FixedOutcome()
        for circuit in range(300):
            n = int(rng.integers(1, 80))
            states = (TableauState(n), StabilizerSum(n))
            ids = list(range(n))
            for step in range(int(rng.integers(1, 160))):
                op = int(rng.integers(0, 8))
                if op < 4:
                    gate = ("HKXZ"[op], ids[int(rng.integers(0, len(ids)))])
                elif op == 4 and len(ids) > 1:
                    a, b = rng.choice(len(ids), size=2, replace=False)
                    gate = ("CNOT", ids[a], ids[b])
                elif op == 5 and rng.random() < 0.2:
                    k = int(rng.integers(1, 4))
                    new = [s.append_qubits(k) for s in states]
                    assert new[0] == new[1], (circuit, step)
                    ids += new[0]
                    continue
                else:
                    q = ids[int(rng.integers(0, len(ids)))]
                    fixed.bit = int(rng.integers(0, 2))
                    got, want = (s.measure(q, fixed) for s in states)
                    assert got[0] == want[0] and abs(got[1] - want[1]) \
                        < 1e-9, (circuit, step)
                    if len(ids) > 1 and rng.random() < 0.3:
                        for s in states:
                            s.discard([q])
                        ids.remove(q)
                    continue
                for s in states:
                    s.apply_gate(*gate)
            keep = [ids[int(i)] for i in rng.choice(
                len(ids), size=min(4, len(ids)), replace=False)]
            assert np.allclose(states[0].density_of(keep),
                               states[1].density_of(keep),
                               atol=1e-9), circuit


def encoded_block_circuit(rng):
    """A protocol-shaped run on <= 12 qubits: blocks of 3 or 4 qubits, each
    encoded by a CNOT fan from its first qubit, coupled by transversal
    gates, then measured one block at a time (sometimes after a bitwise H),
    with a gadget-like round among the live blocks after each measured one.
    Returns the qubit count, the ("gate", name, qubits) and
    ("measure", block) steps, the block left live and each block's first
    qubit."""
    sizes = [int(k) for k in rng.integers(3, 5, size=3)]
    starts = np.cumsum([0] + sizes)
    blocks = [list(range(starts[i], starts[i + 1])) for i in range(3)]
    steps = []

    def transversal(live):
        a, b = (blocks[i] for i in rng.choice(live, size=2, replace=False))
        if rng.random() < 0.5:
            a, b = b, a
        steps.extend(("gate", "CNOT", (qa, qb)) for qa, qb in zip(a, b))
        for q in a + b:
            name = "IXYZHK"[int(rng.integers(0, 6))]
            if name != "I" and rng.random() < 0.3:
                steps.append(("gate", name, (q,)))

    for block in blocks:
        for name in ("H", "K", "X")[:int(rng.integers(0, 4))]:
            steps.append(("gate", name, (block[0],)))
        steps.extend(("gate", "CNOT", (block[0], q)) for q in block[1:])
        if rng.random() < 0.5:
            steps.extend(("gate", "H", (q,)) for q in block)
    live = [0, 1, 2]
    transversal(live)
    for i in rng.permutation(3)[:2]:
        if rng.random() < 0.5:
            steps.extend(("gate", "H", (q,)) for q in blocks[i])
        steps.append(("measure", blocks[i]))
        live.remove(int(i))
        if len(live) == 2:
            transversal(live)
    return int(starts[-1]), steps, blocks[live[0]], [b[0] for b in blocks]


class TestTableauAgainstStatevector:
    """The tableau against the dense statevector, an oracle independent of
    the tableau, on sparse encoded-block runs where a random
    measurement's pivot rows cover few columns."""

    def test_encoded_blocks_match(self):
        rng = np.random.default_rng(1211)
        fixed = FixedOutcome()
        for trial in range(150):
            n, steps, live, firsts = encoded_block_circuit(rng)
            states = (TableauState(n), StateVector(n))
            for step in steps:
                if step[0] == "gate":
                    for s in states:
                        s.apply_gate(step[1], *step[2])
                    continue
                for q in step[1]:
                    fixed.bit = int(rng.integers(0, 2))
                    (tb, tp), (vb, vp) = (s.measure(q, fixed)
                                          for s in states)
                    assert tb == vb and abs(tp - vp) < 1e-9, (trial, q)
            keep = sorted(set(live) | set(firsts))
            assert np.allclose(states[0].density_of(keep),
                               states[1].density_of(keep),
                               atol=1e-9), trial


class TestDeterministicValue:
    """A deterministic outcome is the sign of a product of stabilizer rows,
    and that product's phase depends on the order of its letters in each
    column.  A count that puts every selected Z before every selected X
    gets it wrong, so these check against the dense statevector."""

    def test_pinned_three_qubit_case(self):
        t = TableauState(3)
        for gate in (("CNOT", 0, 1), ("H", 0), ("CNOT", 1, 2),
                     ("CNOT", 0, 1)):
            t.apply_gate(*gate)
        assert t.z_probabilities(2) == (1.0, 0.0)
        assert t.measure(2, np.random.default_rng(0)) == (0, 1.0)

    def test_random_circuits_match_statevector(self):
        """Random H/K/X/CNOT/Pauli circuits with measurements on 4 and 6
        qubits; some measured qubits are discarded and a fresh qubit takes
        their column."""
        rng = np.random.default_rng(1616)
        fixed = FixedOutcome()
        for trial in range(120):
            n = int(rng.choice([4, 6]))
            states = (TableauState(n), StateVector(n))
            ids = list(range(n))
            for step in range(120):
                op = int(rng.integers(0, 9))
                if op < 3:
                    gate = ("HKX"[op], ids[int(rng.integers(0, n))])
                    for s in states:
                        s.apply_gate(*gate)
                elif op < 6:
                    a, b = rng.choice(n, size=2, replace=False)
                    for s in states:
                        s.apply_gate("CNOT", ids[a], ids[b])
                elif op == 6:
                    x, z = (int(m) for m in rng.integers(0, 1 << n, size=2))
                    for s in states:
                        s.apply_pauli(PauliOperator.from_masks(n, x, z), ids)
                else:
                    q = ids[int(rng.integers(0, n))]
                    p1 = states[1].z_probabilities(q)[1]
                    fixed.bit = (int(rng.integers(0, 2))
                                 if 1e-9 < p1 < 1 - 1e-9 else int(p1 > 0.5))
                    (tb, tp), (vb, vp) = (s.measure(q, fixed)
                                          for s in states)
                    assert tb == vb and abs(tp - vp) < 1e-9, (trial, step)
                    if op == 8:
                        for s in states:
                            s.discard([q])
                        fresh = [s.append_qubits(1)[0] for s in states]
                        assert fresh[0] == fresh[1]
                        ids[ids.index(q)] = fresh[0]


class TestColumnReuse:
    """Qubit ids are stable handles over reusable columns, and the tableau
    grows its capacity by doubling."""

    def test_keyed_run_growth_and_width(self, monkeypatch):
        """One keyed run at criterion 7's config appends 128 qubits, but
        the teleport-out register's 42 reuse the columns of the two
        measured round registers and of teleport-in's Bell pair, so the
        tableau peaks at 84 = 3n(3 n_b + 1) columns and grows at most
        ceil(log2 128) + 1 times."""
        from qotp_lab.css import build_steane
        from qotp_lab.qotp import (PauliAttackAdversary, QotpInstance,
                                   compile_controlled_program)

        regrowths = []
        regrow = TableauState._regrow

        def counting(state, cap):
            regrowths.append(cap)
            regrow(state, cap)

        monkeypatch.setattr(TableauState, "_regrow", counting)
        inst = QotpInstance(compile_controlled_program([("Y", 0)], 0, 1),
                            build_steane(), 7 * 131071, world="real",
                            backend="tab", transport="direct")
        attack = PauliOperator.from_masks(21, 0b111, 0)
        inst.run(PauliAttackAdversary(initial_attacks=[("M0", attack)]))
        state = inst.session.state
        assert state._next_id == 128
        assert len(state.xcols) == 84
        assert len(regrowths) <= 8

    def test_discarded_id_is_gone(self):
        t = TableauState(2)
        t.measure(0, np.random.default_rng(3))
        t.discard([0])
        assert t.n == 1
        for call in (lambda: t.apply_gate("H", 0),
                     lambda: t.apply_gate("CNOT", 1, 0),
                     lambda: t.measure(0, np.random.default_rng(3)),
                     lambda: t.discard([0])):
            with pytest.raises(ValueError):
                call()

    def test_discard_requires_collapse(self):
        t = TableauState(2)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        with pytest.raises(ValueError, match="collapsed"):
            t.discard([1])
        assert t.n == 2

    def test_reused_column_measures_zero(self):
        t = TableauState(2)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        fixed = FixedOutcome()
        fixed.bit = 1
        assert t.measure(0, fixed) == (1, 0.5)
        col = t._col(0)
        t.discard([0])
        (q,) = t.append_qubits(1)
        assert q == 2 and t._col(q) == col
        assert t.measure(q, fixed) == (0, 1.0)
        assert t.measure(1, fixed) == (1, 1.0)
        assert np.array_equal(t.density_of([q, 1]),
                              np.diag([0, 1, 0, 0]).astype(complex))


def two_copy_outcomes(sm, qubit_id):
    """The former ``StabilizerSum`` measurement read: canonicalize, then
    project a copy onto each Z outcome.  Returns the copies (None for an
    annihilated one) and their squared norms."""
    row = sm._row(qubit_id)
    sm._canonical = False  # the former read canonicalized every time
    sm.canonicalize()
    branches, norms = [], []
    for y in (0, 1):
        try:
            br = copy.deepcopy(sm)
            br._project(row, y, br._row_bits(row))
            branches.append(br)
            norms.append(br._sq_norm())
        except ValueError:
            branches.append(None)
            norms.append(0.0)
    return branches, norms


class Draw:
    """An rng stub whose one ``random()`` draw selects outcome ``bit``
    wherever it has weight."""

    def __init__(self, bit):
        self.bit = bit

    def random(self):
        return 0.0 if self.bit else 1.0 - 2.0 ** -53


class TestStabsumMeasureFromCanonicalForm:
    """The closed-form measurement against the two-copy one it replaced,
    on random sums with 1-3 T injections and gates between the
    measurements."""

    def test_matches_two_copy_measurement(self):
        interfering = 0
        for seed in range(200):
            rng = np.random.default_rng(9000 + seed)
            n = int(rng.integers(2, 6))
            sm = StabilizerSum(n)
            ids = list(range(n))
            for _ in range(int(rng.integers(1, 4))):
                run_circuit(sm, random_clifford_circuit(len(ids), 8, rng))
                ids += sm.inject_magic()
                sm.apply_gate("CNOT", ids[int(rng.integers(0, n))], ids[-1])
            sm.canonicalize()  # so the gates below must clear the flag
            gates = random_clifford_circuit(len(ids), 10, rng)
            run_circuit(sm, [(g[0],) + tuple(ids[q] for q in g[1:])
                             for g in gates])
            for q in rng.permutation(ids):
                q = int(q)
                oracle = copy.deepcopy(sm)
                branches, norms = two_copy_outcomes(oracle, q)
                want = [norms[0] / sum(norms), norms[1] / sum(norms)]
                row = sm._row_bits(sm._row(q))
                got = sm.z_probabilities(q)
                assert np.allclose(got, want, rtol=0, atol=1e-12), (seed, q)
                if sm.num_terms > 1 and row and \
                        abs(want[0] - 0.5) > 1e-9:
                    interfering += 1
                bit = int(rng.integers(0, 2))
                if want[bit] < 1e-9:
                    bit ^= 1
                drawn, prob = sm.measure(q, Draw(bit))
                assert drawn == bit and abs(prob - want[bit]) < 1e-12
                post = dense_vector(branches[bit]) / np.sqrt(norms[bit])
                assert np.allclose(dense_vector(sm), post, rtol=0,
                                   atol=1e-12), (seed, q)
                gates = random_clifford_circuit(len(ids), 2, rng)
                run_circuit(sm, [(g[0],) + tuple(ids[w] for w in g[1:])
                                 for g in gates])
        # pairs of terms that interfere moved some outcome off 1/2
        assert interfering >= 20


def dict_loop_density(sm, qubits):
    """The former ``StabilizerSum.density_of``: the oracle's amplitudes,
    grouped bit by bit."""
    amps = sum_amplitudes(sm)
    keep = [sm._row(q) for q in qubits]
    groups = {}
    for idx, amp in amps.items():
        kept = rest = 0
        for pos, q in enumerate(keep):
            kept |= ((idx >> (sm.n - 1 - q)) & 1) << (len(keep) - 1 - pos)
        for q in range(sm.n):
            if q not in keep:
                rest = (rest << 1) | ((idx >> (sm.n - 1 - q)) & 1)
        bucket = groups.setdefault(rest, {})
        bucket[kept] = bucket.get(kept, 0.0) + amp
    dim = 1 << len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    for sub in groups.values():
        vec = np.zeros(dim, dtype=complex)
        for kk, aa in sub.items():
            vec[kk] = aa
        rho += np.outer(vec, vec.conj())
    return rho


def test_stabsum_density_matches_dict_loop():
    """The Pauli-expectation read agrees with the dictionary loop over
    every amplitude, on kept sets of 1 to n qubits in any order, after
    Y gates, phased Paulis and a measurement."""
    for seed in range(40):
        rng = np.random.default_rng(9500 + seed)
        n = int(rng.integers(2, 6))
        sm = StabilizerSum(n)
        ids = list(range(n))
        for _ in range(int(rng.integers(1, 4))):
            run_circuit(sm, random_clifford_circuit(len(ids), 8, rng))
            ids += sm.inject_magic()
            sm.apply_gate("CNOT", ids[int(rng.integers(0, n))], ids[-1])
            sm.apply_gate("Y", ids[int(rng.integers(0, len(ids)))])
        pair = [ids[q] for q in rng.choice(len(ids), 2, replace=False)]
        sm.apply_pauli(PauliOperator(2, *(int(v) for v in
                                          rng.integers(0, 4, size=3))), pair)
        sm.measure(ids[-1], rng)
        keep = [int(q) for q in
                rng.permutation(ids)[:int(rng.integers(1, len(ids) + 1))]]
        assert np.abs(sm.density_of(keep) -
                      dict_loop_density(sm, keep)).max() <= 1e-12, seed


def column_loop_density(state, qubits):
    """The former ``TableauState.density_of``: every stabilizer row, the
    outside-support columns rebuilt bit by bit, and the nullspace of that
    system from a full row-reduced form.  Works on tableau columns, which
    the stabilizer rows' masks index."""
    keep = [state._col(q) for q in qubits]
    k = len(keep)
    pos = {q: i for i, q in enumerate(keep)}
    keep_mask = 0
    for q in keep:
        keep_mask |= 1 << q
    width = len(state.xcols)
    rows = [state.stab_row(i) for i in range(width)]
    cols = []
    for j in range(width):
        if (keep_mask >> j) & 1:
            continue
        colx = colz = 0
        for i, (x, z, _) in enumerate(rows):
            colx |= ((x >> j) & 1) << i
            colz |= ((z >> j) & 1) << i
        cols.append(colx)
        cols.append(colz)
    reduced, pivots = rref(cols, len(rows))
    basis = []
    for j in range(len(rows)):
        if j in pivots:
            continue
        vec = 1 << j
        for r, p in zip(reduced, pivots):
            if (r >> j) & 1:
                vec |= 1 << p
        basis.append(vec)
    dim = 1 << k
    rho = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for combo_bits in range(1 << len(basis)):
        combo = 0
        for bi, vec in enumerate(basis):
            if (combo_bits >> bi) & 1:
                combo ^= vec
        x = z = 0
        phase = 0
        for i, (rx, rz, rs) in enumerate(rows):
            if (combo >> i) & 1:
                phase += (2 * rs + (rx & rz).bit_count()
                          + 2 * (z & rx).bit_count())
                x ^= rx
                z ^= rz
        phase = (phase - (x & z).bit_count()) % 4
        xr = zr = 0
        ycount = 0
        for q in keep:
            if (x >> q) & 1:
                xr |= 1 << (k - 1 - pos[q])
            if (z >> q) & 1:
                zr |= 1 << (k - 1 - pos[q])
            ycount += (x >> q) & (z >> q) & 1
        scale = (-1) ** (phase // 2) * (1j) ** ycount
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & zr) & 1)
        rho[idx ^ xr, idx] += scale * signs
    return rho / dim


class TestTableauDensityFromColumns:
    """``TableauState.density_of`` reads the kept qubits' column planes;
    it must give the former column-loop result bit for bit, and the
    statevector's where that fits."""

    def test_matches_column_loop(self):
        rng = np.random.default_rng(77)
        nontrivial = 0
        for trial in range(24):
            n = int(rng.integers(30, 201))
            t = TableauState(n)
            run_circuit(t, random_clifford_circuit(n, 2 * n, rng))
            for q in rng.choice(n, size=n // 2, replace=False):
                t.measure(int(q), rng)
            run_circuit(t, random_clifford_circuit(n, n // 2, rng))
            for _ in range(3):
                keep = [int(q) for q in rng.choice(
                    n, size=int(rng.integers(1, 5)), replace=False)]
                got = t.density_of(keep)
                assert got.tobytes() == \
                    column_loop_density(t, keep).tobytes(), (trial, keep)
                mixed = np.eye(len(got)) / len(got)
                nontrivial += not np.array_equal(got, mixed)
        assert nontrivial >= 20

    def test_matches_statevector(self):
        rng = np.random.default_rng(78)
        for trial in range(40):
            n = int(rng.integers(1, 13))
            states = (TableauState(n), StateVector(n))
            for g in random_clifford_circuit(n, 4 * n, rng):
                for s in states:
                    s.apply_gate(*g)
            keep = [int(q) for q in rng.permutation(n)[
                :int(rng.integers(1, min(n, 4) + 1))]]
            assert np.allclose(states[0].density_of(keep),
                               states[1].density_of(keep), atol=1e-9), trial
            if n <= 8:  # the whole register: a pure state's projector
                assert states[0].density_of(range(n)).tobytes() == \
                    column_loop_density(states[0], range(n)).tobytes()


class TestFrameReplay:
    """``FrameReplay`` against ``TableauState``, outcome for outcome, on
    seeded random Clifford circuits, through the block calls.  Each run
    places its registers by a permutation of its own and keys them with
    Paulis of its own; each round measures some roles in position order,
    bare (``measure_and_drop``) or as Bell pairs of two registers placed
    alike (``bell_measure``), so the permutation sets the order in which
    the measurements of a block are taken.  A last round encodes a live
    qubit that carries an X, Y or Z frame, then Bell-measures."""

    M = 6  # qubits per register

    def _rounds(self, seed):
        rng = np.random.default_rng(seed)
        rounds = [(random_clifford_circuit(self.M, 14, rng),
                   [int(q) for q in rng.integers(0, 8, size=2)],
                   sorted(int(r) for r in rng.choice(
                       self.M, size=int(rng.integers(1, self.M + 1)),
                       replace=False)),
                   bool(rng.integers(0, 2)), None) for _ in range(4)]
        return rounds + [(random_clifford_circuit(self.M, 14, rng), [],
                          list(range(self.M)), True, "XYZ"[seed % 3])]

    def _run(self, state, rounds, seed):
        """Every (bit, probability), the outcome rng's state afterwards,
        the density of three live qubits, and the reference if ``state``
        records one."""
        keys = np.random.default_rng(seed)  # this run's placings and keys
        rng = np.random.default_rng(99)
        outcomes, older = [], []
        for gates, links, roles, bell, letter in rounds:
            pi = [int(p) for p in keys.permutation(self.M)]
            regs = []
            for j in range(1 + bell):
                if letter and not j:  # the data qubit at role 0
                    data = older.pop(0)
                    state.apply_gate(letter, data)
                    ids = state.append_qubits(self.M - 1)
                    ids[pi[0]:pi[0]] = [data]
                else:
                    ids = state.append_qubits(self.M)
                if isinstance(state, (Recorder, FrameReplay)):
                    state.relabel(ids, pi)
                key = PauliOperator.from_masks(self.M, *(
                    int(v) for v in keys.integers(0, 1 << self.M, size=2)))
                if not letter:
                    state.apply_pauli(key, ids)
                regs.append(ids)
                role = [ids[p] for p in pi]
                state.apply_gates([(g[0],) + tuple(role[q] for q in g[1:])
                                   for g in gates])
                if letter:  # keyed after its encoder, as a register is
                    state.apply_pauli(key, ids)
                for k in links if older else ():
                    state.apply_gate("CNOT", older[k % len(older)],
                                     role[k % self.M])
            positions = sorted(pi[r] for r in roles)
            probs = []
            if bell:
                bits = state.bell_measure(
                    [(regs[0][p], regs[1][p]) for p in positions], rng,
                    probs.append)
            else:
                bits = state.measure_and_drop(
                    [regs[0][p] for p in positions], rng, probs.append)
            outcomes += zip(bits, probs)
            measured = {ids[p] for ids in regs[:1 + bell] for p in positions}
            older = [ids[p] for ids in regs for p in pi
                     if ids[p] not in measured] + older
        ref = state.finish() if isinstance(state, Recorder) else None
        return outcomes, rng.bit_generator.state, \
            state.density_of(older[:3]), ref

    def test_matches_tableau(self):
        orders = 0
        for circuit in range(40):
            rounds = self._rounds(circuit)
            ref = self._run(Recorder(), rounds, 0)[3]
            patterns = set()
            for seed in range(1, 5):
                want = self._run(TableauState(0), rounds, seed)
                got = self._run(FrameReplay(ref), rounds, seed)
                assert got[:2] == want[:2], (circuit, seed)
                assert np.allclose(got[2], want[2], atol=1e-12), \
                    (circuit, seed)
                patterns.add(tuple(p for _, p in want[0]))
            orders += len(patterns) > 1
        # the measurement order that the placing sets decides which
        # outcomes are random
        assert orders >= 5


def test_stabsum_contract_digest():
    """Seeded Clifford+T runs through the public contract alone: every
    probability, outcome bit and density the sum returns, hashed, so a
    change of internal layout that moves one bit of any of them fails."""
    digest = hashlib.sha256()
    for seed in range(60):
        rng = np.random.default_rng(9700 + seed)
        sm = StabilizerSum(int(rng.integers(2, 7)))
        ids = list(range(sm.n))
        for _ in range(int(rng.integers(1, 4))):
            run_circuit(sm, [(g[0],) + tuple(ids[q] for q in g[1:])
                             for g in random_clifford_circuit(len(ids), 10,
                                                              rng)])
            ids += sm.inject_magic()
            sm.apply_gate("CNOT", ids[int(rng.integers(0, len(ids) - 1))],
                          ids[-1])
        pair = [ids[q] for q in rng.choice(len(ids), 2, replace=False)]
        sm.apply_pauli(PauliOperator(2, *(int(v) for v in
                                          rng.integers(0, 4, size=3))), pair)
        for q in rng.permutation(ids)[:len(ids) - 2]:
            q = int(q)
            digest.update(np.array(sm.z_probabilities(q)).tobytes())
            bit, prob = sm.measure(q, rng)
            digest.update(bytes([bit]) + np.float64(prob).tobytes())
            sm.discard([q])
            ids.remove(q)
            run_circuit(sm, [(g[0],) + tuple(ids[w] for w in g[1:])
                             for g in random_clifford_circuit(len(ids), 3,
                                                              rng)])
        digest.update(sm.density_of(ids).tobytes())
    assert digest.hexdigest() == \
        "ffdf1ef2f3d569d187854602c06f4001d3ffa54d534579eef0edb0fc3e7904dc"
