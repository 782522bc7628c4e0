"""Protocol-level tests: compilation, teleportation, honest end-to-end runs
on every backend, key-equation audit, abort behavior, and attack forcing."""

import copy
import dataclasses

import numpy as np
import pytest

from qotp_lab import denseops as dn
from qotp_lab import gadgets, qotp
from qotp_lab.backends import StabilizerSum, StateVector, TableauState
from qotp_lab.backends.frame import FrameReplay
from qotp_lab.cotp import (BrOtpProgram, abort_message, brotp_query,
                            decode_payload, encode_payload)
from qotp_lab.css import build_steane, build_toy_code, concatenate
from qotp_lab.gadgets import EIGENSTATE_VECTORS, magic_slots
from qotp_lab.paulis import CliffordUnitary, PauliOperator, Permutation
from qotp_lab.qotp import (DummyAdversary, PauliAttackAdversary, QotpInstance,
                           RunResult, bell_measure, compile_controlled_program,
                           controlled_gate, enumerate_protocol_runs,
                           honest_receiver_run, make_teleport_through,
                           verify_controlled_table)
from qotp_lab.rng import stream
from qotp_lab.trap import random_pauli

STEANE = build_steane()
TOY = build_toy_code()


class TestCompile:
    def test_table_verifies(self):
        verify_controlled_table()

    def test_tableau_refuses_a_t_bearing_program(self):
        """The controlled K holds T gates: the tableau refuses its
        program when the instance is made, before any run."""
        prog = compile_controlled_program([("K", 0)], 0, 1)
        with pytest.raises(ValueError,
                           match=r"channel \[\['K', 0\]\].*backend 'tab'"):
            QotpInstance(prog, STEANE, seed=1, backend="tab")

    def test_controlled_x_is_cnot(self):
        prog = compile_controlled_program([("X", 0)], 0, 1)
        # wires: B wire 0, then the control
        assert prog.controlled_circuit == (("CNOT", 1, 0),)
        assert prog.num_rounds == 0

    def test_controlled_t_dense(self):
        # c-U|psi>|on> = T|psi>|on>, c-U|psi>|off> = |psi>|off>
        prog = compile_controlled_program([("T", 0)], 0, 1)
        n = 3  # B wire 0, the controlled-T helper, the control
        u = dn.circuit_matrix(n, prog.controlled_circuit)
        rng = np.random.default_rng(3)
        psi = dn.random_state(1, rng)
        for ctl, want_t in ((1, True), (0, False)):
            vec = np.zeros(1 << n, dtype=complex)
            # wire order: B wire 0 (MSB), helper, control (LSB)
            for b in range(2):
                idx = (b << (n - 1)) | ctl
                vec[idx] = psi[b]
            out = u @ vec
            want = np.zeros_like(vec)
            target = dn.MT @ psi if want_t else psi
            for b in range(2):
                want[(b << (n - 1)) | ctl] = target[b]
            assert np.allclose(out, want, atol=1e-10), ctl

    CIRCUITS = ([("H", 0)], [("K", 0)], [("T", 0)], [("Y", 0)],
                [("K", 0), ("H", 0)], [("CNOT", 0, 1), ("T", 1)])

    @staticmethod
    def _compile(circ):
        return compile_controlled_program(
            circ, 0, max(w for g in circ for w in g[1:]) + 1)

    def test_r_matches_magic_count(self):
        for circ in self.CIRCUITS:
            prog = self._compile(circ)
            count = {k: sum(1 for g in prog.controlled_circuit if g[0] == k)
                     for k in ("K", "T", "H")}
            rounds = [s for s in prog.steps if s[0].startswith("round-")]
            # every T provisions one correction K round, and every round
            # consumes one magic register slot
            assert len(rounds) == prog.num_rounds == \
                count["K"] + count["H"] + 2 * count["T"] == \
                len(magic_slots(prog.steps))
            assert [s[2] for s in rounds] == list(range(prog.num_rounds))

    def test_partition_reassembles(self):
        for circ in self.CIRCUITS:
            prog = self._compile(circ)
            rebuilt = []
            for step in prog.steps:
                if step[0] == "pauli":
                    rebuilt.append((step[1], step[2]))
                elif step[0] == "cnot":
                    rebuilt.append(("CNOT", step[1], step[2]))
                elif step[0] != "round-Tcorr":
                    rebuilt.append((step[0][len("round-"):], step[1]))
            assert tuple(rebuilt) == prog.controlled_circuit

    def test_rejects_alien_gate(self):
        with pytest.raises(ValueError):
            compile_controlled_program([("SWAP", 0, 1)], 0, 2)


class TestTeleport:
    def test_plain_teleport_all_outcomes(self):
        rng = stream(5, "t")
        seen = set()
        for _ in range(64):
            sv_psi = dn.random_state(1, rng)
            from qotp_lab.backends import StateVector

            sv = StateVector(0)
            d = sv.append_amplitudes(sv_psi)[0]
            in_ids, out_ids = make_teleport_through(sv, [], 1)
            xm, zm = bell_measure(sv, [(d, in_ids[0])], rng)
            seen.add((xm, zm))
            t = PauliOperator.from_masks(1, xm, zm)
            want = dn.pauli_matrix(t) @ sv_psi
            assert 1 - dn.state_fidelity(want, sv.density_of(out_ids)) < 1e-9
        assert seen == {(x, z) for x in (0, 1) for z in (0, 1)}

    def test_teleport_through_authentication(self):
        # resource P E |phi+>: post-state is P E T |psi>
        rng = stream(7, "t2")
        from qotp_lab.backends import TableauState
        from qotp_lab.trap import (TrapCode, authenticate_register,
                                   random_pauli, verify_and_decode)

        for trial in range(10):
            trap = TrapCode(STEANE, Permutation.random(21, rng))
            key = random_pauli(21, rng)
            t = TableauState(0)
            b = t.append_qubits(1)[0]
            t.apply_gate("H", b)  # |+> input
            half = t.append_qubits(1)[0]
            epr = t.append_qubits(1)[0]
            t.apply_gate("H", half)
            t.apply_gate("CNOT", half, epr)
            ids = authenticate_register(t, trap, key, epr)
            xm, zm = bell_measure(t, [(b, half)], rng)
            # de-authenticate and undo the teleport Pauli: recover |+>
            ok, out = verify_and_decode(t, trap, key, ids, rng)
            assert ok
            corr = PauliOperator.from_masks(1, xm, zm)
            t.apply_pauli(corr.adjoint(), [out])
            assert np.allclose(t.density_of([out]),
                               np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-9)


CLIFFORD_CASES = [
    ([("X", 0)], 1, ("+i",), "tab"),
    ([("K", 0)], 1, ("+",), "sum"),
    ([("H", 0)], 1, ("1",), "sum"),
    ([("CNOT", 0, 1)], 2, ("1", "0"), "sum"),
]


class TestHonestRuns:
    @pytest.mark.parametrize("circ,nb,labels,backend", CLIFFORD_CASES)
    def test_steane_clifford_channels(self, circ, nb, labels, backend):
        res, inst = honest_receiver_run(
            compile_controlled_program(circ, 0, nb), STEANE, seed=101,
            b_labels=labels, backend=backend, transport="brotp")
        assert res.accepted and not res.cheated
        rho = res.session.state.density_of(res.b_out_qubits)
        vec = np.array([1.0 + 0j])
        for lab in labels:
            vec = np.kron(vec, EIGENSTATE_VECTORS[lab])
        want = dn.circuit_matrix(nb, circ) @ vec
        assert np.allclose(rho, np.outer(want, want.conj()), atol=1e-8)

    def test_toy_t_channel_fidelity(self):
        res, inst = honest_receiver_run(
            compile_controlled_program([("T", 0)], 0, 1), TOY, seed=103,
            b_labels=("+",), backend="sv", transport="brotp")
        assert res.accepted
        want = dn.MT @ EIGENSTATE_VECTORS["+"]
        fid = dn.state_fidelity(want,
                                res.session.state.density_of(res.b_out_qubits))
        assert fid >= 1 - 1e-9

    def test_identity_channel_round_trip(self):
        for label in ("0", "1", "+", "-i"):
            res, inst = honest_receiver_run(
                compile_controlled_program([], 0, 1), STEANE, seed=107,
                b_labels=(label,), backend="tab")
            assert res.accepted
            want = EIGENSTATE_VECTORS[label]
            assert np.allclose(res.session.state.density_of(res.b_out_qubits),
                               np.outer(want, want.conj()), atol=1e-9)

    def test_key_equation_audit(self):
        for seed in range(5):
            res, inst = honest_receiver_run(
                compile_controlled_program([("Y", 0)], 0, 1), STEANE,
                seed=200 + seed, b_labels=("+",), backend="tab",
                transport="direct")
            assert res.accepted
            audit = inst.oracle.audit
            recomputed = [qotp._KEY_LABELS[audit.final_keys(res.t_out, i)]
                          for i in range(1)]
            assert list(res.s_hat) == recomputed

    def test_brotp_and_direct_transports_agree(self):
        outs = []
        for transport in ("direct", "brotp"):
            res, inst = honest_receiver_run(
                compile_controlled_program([("H", 0)], 0, 1), TOY, seed=301,
                b_labels=("0",), backend="sv", transport=transport)
            outs.append((res.accepted, res.t_in, res.records, res.s_hat))
        assert outs[0] == outs[1]

    def test_sender_message_independent_of_a(self):
        """Keys (and hence the reactive program tables) depend on the seed,
        never on the sender's input."""
        prog = compile_controlled_program([("X", 0)], 1, 1)
        insts = []
        for a_label in ("0", "1"):
            inst = QotpInstance(prog, TOY, seed=99, world="real",
                                backend="sv", a_labels=(a_label,),
                                transport="direct")
            insts.append(inst)
        assert insts[0].keys == insts[1].keys
        assert insts[0].output_keys == insts[1].output_keys
        assert insts[0].trap.pi == insts[1].trap.pi


# the map of each backend's live ids
LIVE_IDS = {StateVector: "_ids", TableauState: "_col_of",
            StabilizerSum: "_row_of"}


class TestLiveQubits:
    @pytest.mark.parametrize("circ,nb,peak,backends", [
        ([("X", 0)], 1, 12, ("sv", "tab", "sum")),
        ([("T", 0)], 1, 15, ("sv", "sum")),
        ([("X", 0), ("X", 1)], 2, 21, ("sv", "tab", "sum")),
    ])
    def test_peak_and_dropped_bell_pairs(self, monkeypatch, circ, nb, peak,
                                         backends):
        """A toy run peaks at 3n(3 n_b + 1 + t) live qubits, held at
        teleport-out, on every backend that can run it, and no qubit a
        Bell measurement measured is live after it."""
        program = compile_controlled_program(circ, 0, nb)
        assert peak == 3 * TOY.n * (3 * nb + 1 + program.uses_t_helper)
        seen = {"peak": 0, "pairs": 0}

        def counting(append, attr):
            def wrapped(self, *args):
                ids = append(self, *args)
                seen["peak"] = max(seen["peak"], len(getattr(self, attr)))
                return ids
            return wrapped

        for cls, attr in LIVE_IDS.items():
            for name in ("append_qubits", "append_amplitudes"):
                if hasattr(cls, name):
                    monkeypatch.setattr(
                        cls, name, counting(getattr(cls, name), attr))

        def checked(state, pairs, rng, sink=None):
            measured = []

            def taken():
                for pair in pairs:
                    measured.extend(pair)
                    yield pair

            masks = bell_measure(state, taken(), rng, sink)
            assert not set(measured) & set(getattr(state,
                                                   LIVE_IDS[type(state)]))
            seen["pairs"] += len(measured) // 2
            return masks

        monkeypatch.setattr(qotp, "bell_measure", checked)
        for backend in backends:
            seen.update(peak=0, pairs=0)
            res, _ = honest_receiver_run(
                compile_controlled_program(circ, 0, nb), TOY, seed=5,
                b_labels=("0",) * nb, backend=backend)
            assert res.accepted
            assert seen["peak"] == peak, backend
            # teleport-in alone measures a pair per wire, teleport-out more
            assert seen["pairs"] >= 2 * nb, backend

    @pytest.mark.parametrize("backend",
                             [StateVector, TableauState, StabilizerSum])
    def test_recovered_register_keeps_its_data_qubit_only(self, backend):
        """De-authentication drops every syndrome and trap qubit it
        measured, as a gadget round drops its magic register."""
        session, verifier, data = gadgets.make_gadget_session(
            TOY, [("K", 0)], ["+"], backend(0), np.random.default_rng(8))
        gadgets.run_encoded_circuit(session, verifier)
        ok, out = session.recover_register(data[0], verifier.keys[data[0]])
        assert ok and not verifier.cheated
        assert set(getattr(session.state, LIVE_IDS[backend])) == {out}


class TestSenderInput:
    def test_cnot_from_sender_wire(self):
        """A CNOT from the sender's wire into B outputs |a> on B, in the
        real protocol on either transport and in the simulator, which
        makes its one ideal call with the sender's input."""
        prog = compile_controlled_program([("CNOT", 0, 1)], 1, 1)
        for a in ("0", "1"):
            want = np.outer(EIGENSTATE_VECTORS[a], EIGENSTATE_VECTORS[a])
            for world, transport in (("real", "direct"), ("real", "brotp"),
                                     ("sim", "direct")):
                inst = QotpInstance(prog, TOY, seed=71, world=world,
                                    backend="sum", a_labels=(a,),
                                    transport=transport)
                res = inst.run(DummyAdversary())
                assert res.accepted, (a, world, transport)
                rho = res.session.state.density_of(res.b_out_qubits)
                assert np.allclose(rho, want, atol=1e-9), (a, world,
                                                           transport)
                assert inst.ideal_calls == (world == "sim")


class TestSimulator:
    def test_dummy_adversary_output_correct(self):
        for circ, labels, gate in ([("X", 0)], ("0",), dn.MX), \
                ([("H", 0)], ("0",), dn.MH):
            inst = QotpInstance(compile_controlled_program(circ, 0, 1), TOY,
                                seed=401, world="sim")
            res = inst.run(DummyAdversary())
            assert res.accepted
            assert inst.ideal_calls == 1
            rho = res.session.state.density_of(res.b_out_qubits)
            want = gate @ EIGENSTATE_VECTORS["0"]
            assert np.allclose(rho, np.outer(want, want.conj()), atol=1e-9)

    def test_control_off_means_identity_gadgets(self):
        """The simulator runs the compiled circuit with its control off:
        after the run the control register still de-authenticates, under
        the verifier's final keys, to |0> (|1> in the real protocol)."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        for world, want in (("sim", 0), ("real", 1)):
            inst = QotpInstance(prog, STEANE, seed=403, world=world,
                                backend="tab", transport="direct")
            res = inst.run(DummyAdversary())
            assert res.accepted
            ses = res.session
            ok, out = ses.recover_register("Ctl",
                                           inst.oracle.audit.keys["Ctl"])
            assert ok
            rho = np.zeros((2, 2))
            rho[want, want] = 1.0
            assert np.allclose(ses.state.density_of([out]), rho, atol=1e-9)

    def test_ideal_channel_one_shot(self):
        prog = compile_controlled_program([("X", 0)], 0, 1)
        inst = QotpInstance(prog, TOY, seed=405, world="sim",
                            backend="sv", transport="direct")
        inst.ideal_calls = 1  # simulate a prior call
        with pytest.raises(RuntimeError):
            inst.run(DummyAdversary())


class TestFrameReplay:
    """From the third keyed run of one shape on one program object, a run
    replays the second run's reference through a Pauli frame."""

    def test_keyed_runs_match_the_tableau(self, monkeypatch):
        """Criterion 7's config: 200 runs on one program give every
        ``RunResult`` field, and every measurement's probability, of the
        same seed on a fresh program, which stays on the tableau.  The
        permutation decides which measurements are random, so more than
        one random/deterministic pattern occurs."""
        weighed = []
        weigh = gadgets.AuthSession._weigh

        def recording(session, p):
            weighed.append(p)
            weigh(session, p)

        monkeypatch.setattr(gadgets.AuthSession, "_weigh", recording)
        attack = PauliOperator.from_masks(21, 0b111, 0)
        prog = compile_controlled_program([("Y", 0)], 0, 1)
        fields = [f.name for f in dataclasses.fields(RunResult)
                  if f.name != "session"]
        patterns = set()
        for t in range(200):
            runs = []
            for program in (prog, compile_controlled_program([("Y", 0)],
                                                             0, 1)):
                weighed.clear()
                inst = QotpInstance(program, STEANE, 7 * 131071 + t,
                                    world="real", backend="tab",
                                    transport="direct")
                runs.append((inst.run(PauliAttackAdversary(
                    initial_attacks=[("M0", attack)])), tuple(weighed)))
            (got, got_p), (want, want_p) = runs
            assert isinstance(got.session.state, FrameReplay) == (t >= 2)
            assert [getattr(got, f) for f in fields] == \
                [getattr(want, f) for f in fields], t
            assert got_p == want_p, t
            patterns.add(want_p)
        assert len(patterns) >= 2

    def test_a_replayed_run_calls_the_frame_per_block(self, monkeypatch):
        """One replayed criterion-7 run reaches its ``FrameReplay`` in at
        most 50 calls of its public methods, nested calls included: one
        per register-wide block, not one per gate or measurement (the
        per-gate replay made 405)."""
        calls = []

        def counted(method):
            def wrapped(self, *args, **kwargs):
                calls.append(method.__name__)
                return method(self, *args, **kwargs)
            return wrapped

        for name, method in list(vars(FrameReplay).items()):
            if callable(method) and not name.startswith("_"):
                monkeypatch.setattr(FrameReplay, name, counted(method))
        attack = PauliOperator.from_masks(21, 0b111, 0)
        prog = compile_controlled_program([("Y", 0)], 0, 1)
        for t in range(3):
            calls.clear()
            res = QotpInstance(prog, STEANE, 7 * 131071 + t, world="real",
                               backend="tab", transport="direct").run(
                PauliAttackAdversary(initial_attacks=[("M0", attack)]))
        assert isinstance(res.session.state, FrameReplay)
        assert 0 < len(calls) <= 50, calls

    def test_replayed_run_continues_past_its_end(self):
        """As in ``test_control_off_means_identity_gadgets``, a replayed
        run's control register de-authenticates after the run, on the
        state the replay hands out, with the acceptance, density and draws
        of the same seed on the tableau."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        for world in ("sim", "real"):
            outs = []
            for program, seed in ((prog, 401), (prog, 402), (prog, 403),
                                  (compile_controlled_program(
                                      [("X", 0)], 0, 1), 403)):
                inst = QotpInstance(program, STEANE, seed=seed, world=world,
                                    backend="tab", transport="direct")
                res = inst.run(DummyAdversary())
                ses = res.session
                run_state = ses.state
                if isinstance(run_state, FrameReplay):
                    ses.state = run_state.final_state()
                ok, out = ses.recover_register(
                    "Ctl", inst.oracle.audit.keys["Ctl"])
                outs.append((run_state, ok, ses.state.density_of([out]),
                             int(ses.rng.integers(0, 1 << 62))))
            (replay, *got), (_, *want) = outs[2:]
            assert isinstance(replay, FrameReplay)
            assert got[0] and got[0] == want[0] and got[2] == want[2]
            assert np.allclose(got[1], want[1], atol=1e-12)

    def test_a_finished_replay_hands_out_its_final_state(self):
        """Past its reference's last entry a replay refuses a Clifford
        call, and ``final_state()`` is the state the same seed leaves on a
        plain tableau: the same live ids and the same density."""
        prog = compile_controlled_program([("X", 0)], 0, 1)

        def run(program, seed):
            return QotpInstance(program, TOY, seed=seed, world="real",
                                backend="tab", transport="direct").run(
                DummyAdversary()).session.state

        run(prog, 0)
        run(prog, 1)  # records the reference
        for seed in range(2, 6):
            replay = run(prog, seed)
            plain = run(compile_controlled_program([("X", 0)], 0, 1), seed)
            assert isinstance(replay, FrameReplay)
            final = replay.final_state()
            ids = sorted(plain._col_of)
            assert sorted(final._col_of) == ids
            assert np.allclose(final.density_of(ids), plain.density_of(ids),
                               atol=1e-12), seed
            with pytest.raises(RuntimeError, match="leaves its reference"):
                replay.apply_gate("H", ids[0])

    def test_a_call_off_the_reference_raises(self):
        """A replayed run that makes a gate its reference lacks raises; it
        does not fall back to the tableau."""

        class ExtraH(DummyAdversary):
            extra = False

            def prepare_b_w(self, state):
                b, w = super().prepare_b_w(state)
                if self.extra:
                    state.apply_gate("H", b[0])
                return b, w

        prog = compile_controlled_program([("X", 0)], 0, 1)

        def run(seed, adversary):
            return QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab",
                                transport="direct").run(adversary)

        run(0, ExtraH())
        run(1, ExtraH())
        assert isinstance(run(2, ExtraH()).session.state, FrameReplay)
        off = ExtraH()
        off.extra = True
        with pytest.raises(RuntimeError, match="leaves its reference"):
            run(3, off)


def _toy_magic_attack():
    return PauliAttackAdversary(
        initial_attacks=[("M0", PauliOperator.from_masks(3, 0b001, 0))])


def _toy_data_attack():
    return PauliAttackAdversary(
        initial_attacks=[("Bt0", PauliOperator.from_masks(3, 0b010, 0b001))],
        entangle_w=True)


def _unstack(leaves):
    """One RunResult per outcome of the stacked enumerated leaves, in
    order: corrections as int masks, keys as labels (or ("random",)), and
    the outcome's own weight and density."""
    out = []
    for leaf in leaves:
        for k in range(len(leaf.weight)):
            s_hat = leaf.s_hat if leaf.cheated else tuple(
                qotp._KEY_LABELS[bits[k]] for bits in leaf.s_hat)
            out.append(dataclasses.replace(
                leaf, t_out=tuple((int(x[k]), int(z[k]))
                                  for x, z in leaf.t_out),
                s_hat=s_hat, weight=float(leaf.weight[k]),
                density=leaf.density[k]))
    return out


class TestStrategies:
    """Sampling and exact enumeration walk the same schedule: a sampled run
    is always one of the enumerated branches (same transcript, weight and
    output state), and the branch weights form a probability distribution."""

    @pytest.mark.parametrize("channel,world,adversary", [
        ([("X", 0)], "real", DummyAdversary),
        ([("X", 0)], "sim", DummyAdversary),
        ([("Y", 0)], "real", DummyAdversary),
        ([("Y", 0)], "real", _toy_magic_attack),
    ], ids=["X-real", "X-sim", "Y-real", "Y-real-M0-attack"])
    def test_sampled_run_is_an_enumerated_leaf(self, channel, world,
                                               adversary):
        prog = compile_controlled_program(channel, 0, 1)

        def instance(seed):
            return QotpInstance(prog, TOY, seed=seed, world=world,
                                backend="sv", transport="direct")

        def transcript(res):
            return (res.t_in, res.records, res.replies, res.t_out, res.s_hat)

        def output(res):
            # the sampled run applied the final key; leaves are before it
            if res.accepted:
                for q, label in zip(res.b_out_qubits, res.s_hat):
                    res.session.state.apply_pauli(
                        PauliOperator.from_label(label), [q])
            return res.session.state.density_of(res.b_out_qubits + res.w_ids)

        for seed in range(501, 504):
            leaves = _unstack(enumerate_protocol_runs(instance(seed),
                                                      adversary()))
            assert abs(sum(leaf.weight for leaf in leaves) - 1) < 1e-12
            sampled = instance(seed).run(adversary())
            # the simulator's splice outcomes are not in the transcript, so
            # several leaves can share one
            same = [leaf for leaf in leaves if leaf.weight > 0
                    and transcript(leaf) == transcript(sampled)]
            assert any(
                np.isclose(leaf.weight, sampled.weight, rtol=1e-9, atol=0)
                and np.allclose(leaf.density, output(sampled), atol=1e-9)
                for leaf in same)

    @pytest.mark.parametrize("channel,backend,refusal", [
        ([("K", 0)], "sv", "T gates"),
        ([("X", 0)], "tab", "dense-backend"),
        ([("X", 0)], "sum", "dense-backend"),
    ], ids=["T-bearing", "tableau", "stabilizer-sum"])
    def test_enumeration_refuses_before_any_gate(self, channel, backend,
                                                  refusal):
        """A T-bearing program (whose correction rounds read the
        verifier's reply) and a non-dense backend are refused before the
        walk appends a qubit."""
        prog = compile_controlled_program(channel, 0, 1)
        inst = QotpInstance(prog, TOY, seed=511, backend=backend,
                            transport="direct")
        with pytest.raises(ValueError, match=refusal):
            enumerate_protocol_runs(inst, DummyAdversary())
        assert inst.session.state.n == 0


class TestBatchedLeaves:
    """Teleport-out under exact enumeration is one batch per branch: one
    verdict and one stacked density read.  Every final key, sampled or
    enumerated, comes from ``QotpVerifier.final_keys``."""

    @pytest.mark.parametrize("world", ["real", "sim"])
    @pytest.mark.parametrize("base", [TOY, STEANE, concatenate(STEANE, 2)],
                             ids=["toy", "steane", "d9"])
    def test_final_key_matches_encoder_conjugation(self, base, world):
        """The key's two parities against the trap encoder E as a
        Clifford: the data-position bits of E^dag q E, for q the pad, the
        teleport-out correction and the register key, all random."""
        inst = QotpInstance(compile_controlled_program([("X", 0)], 0, 1),
                            base, seed=601, world=world, transport="direct")
        v = inst.oracle
        assert not v.verdict()  # applies the CNOT key update, once
        trap = v.trap
        encoder = CliffordUnitary(
            trap.n, tuple(trap.encoding_ops(list(range(trap.n)))))
        dpos = trap.data_position()
        gen = stream(601, "t-out")
        for _ in range(100):
            v.output_keys[0] = random_pauli(trap.n, gen)
            v.keys["Bt0"] = random_pauli(trap.n, gen)
            t = random_pauli(trap.n, gen)
            pulled = encoder.conjugate(v.output_keys[0] * t * v.keys["Bt0"])
            want = PauliOperator.from_masks(
                1, pulled.x >> dpos & 1, pulled.z >> dpos & 1).to_label()
            assert qotp._KEY_LABELS[v.final_keys([(t.x, t.z)], 0)] == want
            assert v.finalize([(t.x, t.z)]) == ([want], False)
        # the array masks against the int masks, over every outcome of four
        # fanned-out Bell pairs, then over random masks as wide as an int64
        # holds
        xs, zs = qotp._fan_masks(4)
        width = min(trap.n, 63)
        xs = np.concatenate([xs, gen.integers(0, 1 << width, 256)])
        zs = np.concatenate([zs, gen.integers(0, 1 << width, 256)])
        keys = v.final_keys([(xs, zs)], 0)
        assert keys.shape == xs.shape
        assert keys.tolist() == [
            v.final_keys([(int(x), int(z))], 0) for x, z in zip(xs, zs)]

    @pytest.mark.parametrize("adversary", [_toy_data_attack,
                                           _toy_magic_attack],
                             ids=["data-attack", "magic-attack"])
    def test_stacked_accumulation_matches_per_leaf_dict(self, adversary):
        """Every (transcript, key label) density of the per-leaf dict
        accumulation equals the stacked array's slot, bit for bit, and
        every other slot stays zero: one permutation, four pad cosets.
        Under this permutation the data attack is always accepted and the
        magic attack always rejected, so both kinds of addition are met."""
        channel = [("X", 0)] if adversary is _toy_data_attack else [("Y", 0)]
        prog = compile_controlled_program(channel, 0, 1)
        perms = [Permutation(3, (1, 0, 2))]
        cosets = ("I", "X", "Z", "Y")
        weight_scale = 1.0 / (len(perms) * len(cosets))
        verdicts = set()
        for world in ("real", "sim"):
            oracle = {}
            for perm in perms:
                trap = qotp.TrapCode(TOY, perm)
                for letter in cosets:
                    inst = QotpInstance(prog, TOY, 7, world=world,
                                        backend="sv", transport="direct",
                                        trap=trap, pad_coset=letter)
                    for result in _unstack(enumerate_protocol_runs(
                            inst, adversary())):
                        rho = result.density
                        transcript = (result.t_in, result.records,
                                      result.replies, result.t_out)
                        w = result.weight * weight_scale
                        verdicts.add(result.cheated)
                        if result.cheated:
                            for label in ("+I", "+X", "+Y", "+Z"):
                                key = (transcript, label)
                                oracle[key] = oracle.get(key, 0) \
                                    + (w / 4) * rho
                        else:
                            key = (transcript, result.s_hat)
                            oracle[key] = oracle.get(key, 0) + w * rho
            stacked = qotp._world_density_map(world, prog, TOY, 7,
                                              adversary, (), perms, cosets)
            filled = {prefix: np.zeros(acc.shape[:2], dtype=bool)
                      for prefix, acc in stacked.items()}
            for ((t_in, records, replies, t_out), label), rho \
                    in oracle.items():
                (xm, zm), = t_out
                if isinstance(label, str):
                    slot = 4 + qotp._KEY_LABELS.index(label)
                else:
                    slot = qotp._KEY_LABELS.index(label[0])
                prefix = (t_in, records, replies)
                assert np.array_equal(stacked[prefix][xm << 3 | zm, slot],
                                      rho)
                filled[prefix][xm << 3 | zm, slot] = True
            for prefix, acc in stacked.items():
                assert not acc[~filled[prefix]].any()
        assert verdicts == {adversary is _toy_magic_attack}

    def test_rejected_leaves_open_no_reject_key_stream(self, monkeypatch):
        from qotp_lab import rng as rngmod

        opened = []
        real_stream = rngmod.stream

        def counting_stream(seed, name):
            opened.append(name)
            return real_stream(seed, name)

        monkeypatch.setattr(rngmod, "stream", counting_stream)
        prog = compile_controlled_program([("Y", 0)], 0, 1)
        rejected = 0
        for seed in range(501, 504):
            inst = QotpInstance(prog, TOY, seed=seed, world="real",
                                backend="sv", transport="direct")
            leaves = _unstack(enumerate_protocol_runs(inst,
                                                      _toy_magic_attack()))
            rejected += sum(leaf.cheated for leaf in leaves)
            assert all(leaf.s_hat == ("random",)
                       for leaf in leaves if leaf.cheated)
        assert rejected > 0
        assert "reject-key" not in opened
        # a sampled run that rejects still draws its junk key
        for seed in range(501, 601):
            inst = QotpInstance(prog, TOY, seed=seed, world="real",
                                backend="sv", transport="direct")
            if inst.run(_toy_magic_attack()).cheated:
                break
        assert opened.count("reject-key") == 1


class TestAbortChannel:
    def test_magic_attack_detected_and_key_random(self):
        """An X-type logically nontrivial attack on a magic register is
        rejected at the trap-code rate, and rejected runs hand out final
        keys that are uniform and key-independent."""
        from scipy.stats import chisquare

        attack = PauliOperator.from_masks(21, 0b111, 0)
        rejects = 0
        runs = 400
        labels = {}
        for t in range(runs):
            inst = QotpInstance(
                compile_controlled_program([("Y", 0)], 0, 1), STEANE,
                seed=10_000 + t, world="real", backend="tab",
                transport="direct")
            adv = PauliAttackAdversary(initial_attacks=[("M0", attack)])
            res = inst.run(adv)
            if res.cheated:
                rejects += 1
                # the junk key comes from a dedicated stream; collect it
                v = inst.oracle.audit
                junk, cheated = v.finalize([(0, 0)])
                assert cheated
                labels[junk[0]] = labels.get(junk[0], 0) + 1
        assert rejects / runs >= 1 - (2 / 3) ** 1.5
        assert chisquare(
            [labels.get(f"+{p}", 0) for p in "IXZY"]).pvalue > 1e-5

    def test_tampered_record_rejected(self):
        """Flipping one record bit on any checked position always rejects;
        flips on |+>-trap positions are invisible to a computational-basis
        decode (X there is a stabilizer) and must be ignored."""

        class RecordTamper(DummyAdversary):
            def __init__(self, position):
                self.position = position

            def tamper_record(self, index, bits):
                bits = list(bits)
                bits[self.position] ^= 1
                return bits

        rejects = accepts = 0
        for t in range(40):
            inst2 = QotpInstance(
                compile_controlled_program([("Y", 0)], 0, 1), STEANE,
                seed=20_000 + t, world="real", backend="tab",
                transport="direct")
            checked = inst2.trap.base_positions + \
                inst2.trap.zero_trap_positions
            res2 = inst2.run(RecordTamper(checked[t % len(checked)]))
            if res2.cheated:
                rejects += 1
            inst3 = QotpInstance(
                compile_controlled_program([("Y", 0)], 0, 1), STEANE,
                seed=20_000 + t, world="real", backend="tab",
                transport="direct")
            plus = inst3.trap.plus_trap_positions
            res3 = inst3.run(RecordTamper(plus[t % len(plus)]))
            if not res3.cheated:
                accepts += 1
        assert rejects == 40
        assert accepts == 40

    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    @pytest.mark.parametrize("tamper", ["append", "drop"])
    def test_record_of_wrong_length_rejected(self, transport, tamper):
        """A record one bit longer or shorter than its round's 3n bits
        rejects the run, however the extra or missing bit would decode."""

        class LengthTamper(DummyAdversary):
            def tamper_record(self, index, bits):
                return bits + [0] if tamper == "append" else bits[:-1]

        prog = compile_controlled_program([("Y", 0)], 0, 1)
        for seed in range(100, 120):
            inst = QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab", transport=transport)
            res = inst.run(LengthTamper())
            assert res.cheated and not res.accepted, seed

    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    @pytest.mark.parametrize("tamper", ["append", "drop"])
    def test_teleport_in_report_of_wrong_length_rejected(self, transport,
                                                         tamper):
        """A teleport-in report with a label too many or too few rejects
        the run: an appended "+X" would otherwise flip the control's key
        by a logical X, and a dropped label would leave its pad
        unapplied."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        for seed in range(20):
            inst = QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab", transport=transport)
            send = inst.oracle.receive_t_in
            inst.oracle.receive_t_in = lambda labels: send(
                labels + ["+X"] if tamper == "append" else labels[:-1])
            res = inst.run(DummyAdversary())
            assert res.cheated and not res.accepted, seed
            assert res.s_hat == ("random",), seed

    @staticmethod
    def _assert_rejected(transport, method, report):
        """Runs on a Steane X-channel instance whose receiver sends
        ``report`` in place of its own call to the verifier's ``method``
        end as cheating, with the junk key and no exception."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        for seed in range(5):
            inst = QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab", transport=transport)
            send = getattr(inst.oracle, method)
            setattr(inst.oracle, method, lambda _: send(report))
            res = inst.run(DummyAdversary())
            assert res.cheated and not res.accepted, seed
            assert res.s_hat == ("random",), seed

    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    @pytest.mark.parametrize("labels", [["+Q"], ["+XZ"], ["-X"], ["X"],
                                        [None], [["+X"]]], ids=str)
    def test_malformed_teleport_in_report_rejected(self, transport, labels):
        """A teleport-in correction is one of the four key labels; any
        other report, however it would parse as a Pauli, is cheating."""
        self._assert_rejected(transport, "receive_t_in", labels)

    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    @pytest.mark.parametrize("t_out", [[(1 << 40, 0)], [(-1, 0)],
                                       [("a", "b")], [(True, 0)], [(0,)],
                                       [(0, 0, 0)], [0]], ids=str)
    def test_malformed_teleport_out_report_rejected(self, transport, t_out):
        """A teleport-out correction is a pair of non-bool ints in
        [0, 2^3n); any other report is cheating."""
        self._assert_rejected(transport, "finalize", t_out)

    @pytest.mark.parametrize("step", ["t_in", "t_out"])
    @pytest.mark.parametrize("payload", [b"\xff[", b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_chained_report_rejected(self, step, payload):
        """On the chained transport a teleport-in or teleport-out payload
        that does not decode as JSON is a malformed report, not an error
        in the round function."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        at = 1 if step == "t_in" else prog.num_rounds + 2
        for seed in range(5):
            inst = QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab", transport="brotp")
            oracle = inst.oracle
            query = oracle._query
            oracle._query = lambda sent: query(
                payload if oracle.cursor == at else sent)
            res = inst.run(DummyAdversary())
            assert res.cheated and not res.accepted, seed
            assert res.s_hat == ("random",), seed

    @pytest.mark.parametrize("payload", [
        b"", b"\x01", b"\x15\x00", qotp.record_to_bytes([0] * 21) + b"\x00"],
        ids=["empty", "one-byte", "no-mask-bytes", "trailing-byte"])
    def test_undecodable_chained_record_rejected(self, payload):
        """On the chained transport a round payload that is not exactly a
        record as ``record_to_bytes`` writes it is cheating: the round
        advances and replies with its one bit, and nothing raises."""
        prog = compile_controlled_program([("K", 0)], 0, 1)
        inst = QotpInstance(prog, STEANE, seed=5, world="real",
                            backend="auto", transport="brotp")
        oracle = inst.oracle
        oracle.receive_t_in([qotp._KEY_LABELS[0]])
        assert not oracle.audit.cheated
        reply, _ = brotp_query(oracle.program, oracle.cursor, payload,
                               oracle.carried)
        assert len(reply) == 1
        assert oracle.audit.cheated

    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    @pytest.mark.parametrize("tamper", ["short", "long"])
    def test_teleport_out_report_of_wrong_length_rejected(self, transport,
                                                          tamper):
        """A t_out with a correction too many or too few gets the junk
        key of a rejected run, on the chained transport as well, where a
        short one used to fail inside the last round function."""
        prog = compile_controlled_program([("X", 0)], 0, 1)
        for seed in range(20):
            inst = QotpInstance(prog, STEANE, seed=seed, world="real",
                                backend="tab", transport=transport)
            finalize = inst.oracle.finalize
            inst.oracle.finalize = lambda t_out: finalize(
                t_out[:-1] if tamper == "short" else t_out + [(0, 0)])
            res = inst.run(DummyAdversary())
            assert res.cheated and not res.accepted, seed
            assert res.s_hat == ("random",), seed


class TestCarriedState:
    """The verifier's carried state on the chained transport: a fixed binary
    layout that decodes to the verifier it encodes, keeps one length over
    the whole run, and aborts the chain on any flipped byte."""

    class AppendBit(DummyAdversary):
        def tamper_record(self, index, bits):
            return bits + [0] if index == 2 else bits

    @pytest.mark.parametrize("adversary", [DummyAdversary, AppendBit])
    def test_round_trip_length_and_flips(self, monkeypatch, adversary):
        """Every state a T-channel run carries (its K corrections leave
        ``need_k`` None, False and True; a record one bit long makes the
        run cheat) decodes to the verifier it encodes, has the length of
        the first, so ``_seal`` never finds it too long, and with any one
        byte of its carried form flipped, or its tag widened by a leading
        zero byte, aborts the next round on its MAC."""
        states = []
        encode = qotp._serialize_verifier

        def spy(v, names):
            blob = encode(v, names)
            states.append((blob, names, dict(v.keys), v.pc, v.cheated,
                           v.need_k))
            return blob

        flips = []
        query = BrOtpProgram.query

        def flipping_query(self, i, b_i, carried=b""):
            bad_forms = []
            if i > 1:
                for j in range(len(carried)):
                    bad = bytearray(carried)
                    bad[j] ^= 0xFF
                    bad_forms.append(bytes(bad))
                # the same tag, one byte wider: a second byte string for
                # the same state
                c0, tag = decode_payload(carried)
                bad_forms.append(encode_payload(c0, b"\0" + tag))
            for bad in bad_forms:
                twin = BrOtpProgram([copy.copy(c) for c in self.cotps],
                                    self.ell)
                flips.append(query(twin, i, b_i, bad))
            return query(self, i, b_i, carried)

        monkeypatch.setattr(qotp, "_serialize_verifier", spy)
        monkeypatch.setattr(BrOtpProgram, "query", flipping_query)
        inst = QotpInstance(compile_controlled_program([("T", 0)], 0, 1),
                            TOY, seed=3, world="real", backend="sv",
                            transport="brotp")
        res = inst.run(adversary())
        assert res.cheated == (adversary is self.AppendBit)
        v0 = inst.oracle.audit
        for blob, names, keys, pc, cheated, need_k in states:
            v = qotp._deserialize_verifier(blob, names, v0.program, v0.trap,
                                           v0.output_keys, v0.reject_key_seed)
            # a key travels as its x and z masks (the phase is not a key)
            assert [(name, p.x, p.z) for name, p in v.keys.items()] == \
                [(name, keys[name].x, keys[name].z) for name in sorted(keys)]
            assert (v.pc, v.cheated, v.need_k) == (pc, cheated, need_k)
            assert type(v.need_k) is type(need_k)
        assert len({len(blob) for blob, *_ in states}) == 1
        assert {need_k for *_, need_k in states} == {None, False, True}
        assert any(cheated for *_, cheated, _ in states) == res.cheated
        assert flips and set(flips) == {abort_message("mac")}
