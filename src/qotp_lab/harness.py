"""Experiment driver: seeded, reproducible suites with machine-readable
reports.

Every command executes deterministically under a single root seed split
into named streams.  Reports serialize with sorted keys and fixed float
formatting (17 significant digits) so identical runs are byte-identical;
wall-clock timing goes to a separate metadata file.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, rng as rngmod
from . import denseops as dn
from .backends import StateVector, TableauState, stabsum, statevector, tableau
from .cotp import (BrOtpIdeal, brotp_compile, brotp_query, gf_mul,
                   run_honest_chain)
from .css import build_steane, build_toy_code, code_from_spec
from .gadgets import (EIGENSTATE_VECTORS, make_gadget_session,
                      run_encoded_circuit)
from .paulis import CliffordUnitary, PauliOperator
from .qotp import (DummyAdversary, PauliAttackAdversary, QotpInstance,
                   WOnlyAdversary, bell_measure, compare_real_vs_sim,
                   compile_controlled_program, honest_receiver_run,
                   make_teleport_through, pick_backend)
from .trap import (classify_pauli_attack, count_nontrivial,
                   estimate_attack_security, exact_attack_probabilities,
                   sample_trap_tables, security_sweep_rows, sweep_to_csv,
                   wilson_interval)

# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canon(value) -> str:
    if isinstance(value, dict):
        inner = ",".join(f"{_canon(str(k))}:{_canon(v)}"
                         for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        out = format(float(value), ".17g")
        if "n" in out:  # nan, inf or -inf: JSON has no token for them
            out = out.replace("nan", "NaN").replace("inf", "Infinity")
            return f'"{out}"'
        return out if ("." in out or "e" in out) else out + ".0"
    if value is None:
        return "null"
    return json.dumps(str(value))


def canonical_json(value) -> str:
    return _canon(value) + "\n"


@dataclass
class ExperimentReport:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def add_check(self, name: str, value, bound, passed: bool,
                  mode: str = "exact") -> None:
        self.checks.append({"name": name, "value": value, "bound": bound,
                            "pass": bool(passed), "mode": mode})

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_canonical(self) -> str:
        return canonical_json({
            "command": self.command,
            "config": self.config,
            "version": __version__,
            "checks": self.checks,
            "extra": self.extra,
            "all_pass": self.all_pass,
        })


def worst_of(values) -> float:
    """The largest of ``values``, or NaN when any is NaN, so that a NaN
    deviation fails its ``<=`` check (``max`` drops a NaN that is not its
    first argument)."""
    values = list(values)
    return float("nan") if any(v != v for v in values) else max(values)


def emit_report(report: ExperimentReport, out_dir: str,
                csv_text: str | None = None) -> dict:
    """Write the report, its meta file and the CSV (if any) into
    ``out_dir``.  If one cannot be written, the files this call wrote are
    removed before the ``OSError`` propagates, so no report is left
    without its meta file."""
    os.makedirs(out_dir, exist_ok=True)
    texts = {"report": ("report.json", report.to_canonical()),
             "meta": ("meta.json", canonical_json(
                 {"wall_clock_seconds": report.wall_clock}))}
    if csv_text is not None:
        texts["csv"] = ("csv", csv_text)
    paths = {}
    try:
        for kind, (suffix, text) in texts.items():
            path = os.path.join(out_dir, f"{report.command}.{suffix}")
            with open(path, "w") as fh:
                paths[kind] = path
                fh.write(text)
    except OSError:
        for path in paths.values():
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return paths


def config_keys(config: dict, *accepted: str, name: str = "config") -> None:
    """Reject a key of ``config`` that the command does not read."""
    for key in config:
        if key not in accepted:
            raise ValueError(f"{name} has unknown key {key!r} (accepted: "
                             f"{', '.join(sorted(accepted))}), got {config!r}")


def config_int(config: dict, key: str, default: int, lo: int = 1,
               hi: int | None = None) -> int:
    """``config[key]`` (else ``default``), an integer in [lo, hi]; anything
    else raises a ValueError naming the key and its allowed range."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < lo or (hi is not None and value > hi):
        allowed = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{key} must be an integer {allowed}, "
                         f"got {value!r}")
    return value


def config_choice(config: dict, key: str, default: str, choices) -> str:
    """``config[key]`` (else ``default``), one of ``choices``."""
    value = config.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{key} must be one of [{', '.join(choices)}], "
                         f"got {value!r}")
    return value


def config_choice_list(config: dict, key: str, default: list, choices,
                       length: int | None = None) -> list:
    """``config[key]`` (else ``default``), a non-empty list of ``choices``,
    exactly ``length`` long when that is given."""
    value = config.get(key, default)
    if not isinstance(value, list) or not value \
            or length not in (None, len(value)) \
            or not all(isinstance(v, str) and v in choices for v in value):
        size = "a non-empty list" if length is None else \
            f"a list of {length}"
        raise ValueError(f"{key} must be {size} of values from "
                         f"[{', '.join(choices)}], got {value!r}")
    return value


def config_code(config: dict):
    """The base code named by ``base`` concatenated ``levels`` times."""
    return code_from_spec(config.get("base", "steane"),
                          config_int(config, "levels", 1))


def config_channel(config: dict, default: list) -> list[tuple]:
    """``channel``: a non-empty list of gates, each a name then qubit
    indices."""
    channel = config.get("channel", default)
    if not isinstance(channel, list) or not channel or not all(
            isinstance(g, list) and g and isinstance(g[0], str)
            and all(isinstance(q, int) and not isinstance(q, bool)
                    and q >= 0 for q in g[1:])
            for g in channel):
        raise ValueError("channel must be a non-empty list of gates like "
                         f"[\"H\", 0], got {channel!r}")
    return [tuple(g) for g in channel]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_twirl_check(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    """Averaging an attack over Pauli conjugations equals its probabilistic
    Pauli mixture: the channel-twirl consequence of the sandwich identity."""
    config_keys(config, "seed", "unitaries")
    trials = config_int(config, "unitaries", 25)
    rng = rngmod.stream(seed, "twirl")
    report = ExperimentReport("twirl-check", config)
    worst = 0.0
    for t in range(trials):
        u = dn.random_unitary(2, rng)
        rho = dn.random_density(2, rng)
        coeffs = dn.pauli_decompose(u)
        twirled = np.zeros((4, 4), dtype=complex)
        for p in dn.all_paulis(2):
            pm = dn.pauli_matrix(p)
            v = pm.conj().T @ u @ pm
            twirled += v @ rho @ v.conj().T
        twirled /= 16.0
        mixture = np.zeros((4, 4), dtype=complex)
        for q, alpha in coeffs.items():
            qm = dn.pauli_matrix(q)
            mixture += abs(alpha) ** 2 * (qm @ rho @ qm.conj().T)
        worst = worst_of([worst, float(np.max(np.abs(twirled - mixture)))])
    report.add_check("pauli_twirl_matches_mixture", worst, 1e-10,
                     worst <= 1e-10)
    return report, None


def run_trap_security(config: dict, seed: int) -> tuple[ExperimentReport, str]:
    config_keys(config, "seed", "base", "levels", "attack_weight", "attacks",
                "samples")
    base = config_code(config)
    weight = config_int(config, "attack_weight", 3, hi=3 * base.n)
    attacks = config_int(config, "attacks", 40)
    samples = config_int(config, "samples", 100_000)
    rng = rngmod.stream(seed, "trap-security")
    rows = security_sweep_rows(base, weight, attacks, samples, rng)
    bound = (2 / 3) ** (weight / 2)
    worst = max(rows, key=lambda r: r.eps_hat)
    report = ExperimentReport("trap-security", config)
    report.add_check("worst_eps_hat", worst.eps_hat, bound,
                     worst.eps_hat <= bound, mode="monte-carlo")
    report.add_check("worst_ci_hi", worst.ci_hi, bound,
                     worst.ci_hi <= bound, mode="monte-carlo")
    # exact cross-check: transversal X placed on the first base-block row
    attack = PauliOperator.from_masks(3 * base.n, (1 << base.n) - 1, 0)
    exact = exact_attack_probabilities(base, base.n)[2]
    rng2 = rngmod.stream(seed, "trap-security-exact")
    est = estimate_attack_security(base, attack, samples, rng2)
    report.add_check("placement_exact_in_ci", exact,
                     [est.ci_lo, est.ci_hi],
                     est.ci_lo <= exact <= est.ci_hi, mode="hypergeometric")
    report.extra["rows"] = len(rows)
    return report, sweep_to_csv(rows, base)


def run_distance_exhaustive(config: dict,
                            seed: int) -> tuple[ExperimentReport, None]:
    """Exhaustive weight<=2 sweep over sampled permutations (criterion 2)."""
    config_keys(config, "seed", "base", "levels", "permutations")
    perms = config_int(config, "permutations", 1000)
    base = config_code(config)
    rng = rngmod.stream(seed, "distance")
    n3 = 3 * base.n
    letters = ((1, 0), (0, 1), (1, 1))  # X, Z, Y as (x, z) bits
    singles = [(xb << j, zb << j) for j in range(n3) for xb, zb in letters]
    pairs = [((xi << i) | (xj << j), (zi << i) | (zj << j))
             for i in range(n3) for j in range(i + 1, n3)
             for xi, zi in letters for xj, zj in letters]
    bad = int(count_nontrivial(sample_trap_tables(base, perms, rng),
                               singles + pairs, n3).sum())
    report = ExperimentReport("trap-distance", config)
    report.add_check("weight_le2_nontrivial_accepts", bad, 0, bad == 0)
    report.extra["attacks_per_permutation"] = len(singles) + len(pairs)
    return report, None


def run_gadget_check(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    config_keys(config, "seed")
    report = ExperimentReport("gadget-check", config)
    steane = build_steane()
    toy = build_toy_code()
    labels = ("0", "1", "+", "-", "+i", "-i")

    def run(base, circuit, inputs, state, stream):
        """The encoded circuit, then every data register de-authenticated:
        (every gadget record and register accepted, the density of the data
        qubits)."""
        session, verifier, data = make_gadget_session(
            base, circuit, inputs, state, rngmod.stream(seed, stream))
        run_encoded_circuit(session, verifier)
        recovered = [session.recover_register(d, verifier.keys[d])
                     for d in data]
        return (all(ok for ok, _ in recovered) and not verifier.cheated,
                session.state.density_of([q for _, q in recovered]))

    worst = {}
    for gate in ("X", "Y", "Z", "K", "H"):
        errs = []
        for label in labels:
            ok, rho = run(steane, [(gate, 0)], [label], TableauState(0),
                          f"gadget-{gate}-{label}")
            want = dn.GATE_MATRICES[gate] @ EIGENSTATE_VECTORS[label]
            errs.append(0.0 if ok else 1.0)
            errs.append(float(np.max(np.abs(
                rho - np.outer(want, want.conj())))))
        worst[gate] = worst_of(errs)
        report.add_check(f"gadget_{gate}_exact", worst[gate], 1e-9,
                         worst[gate] <= 1e-9)
    # CNOT on two registers
    ok, rho = run(steane, [("CNOT", 0, 1)], ["1", "0"], TableauState(0),
                  "gadget-CNOT")
    err = float(np.max(np.abs(rho - np.diag([0, 0, 0, 1.0]))))
    report.add_check("gadget_CNOT_exact", err, 1e-9,
                     bool(ok and err <= 1e-9))
    # T at toy scale
    errs = []
    for label in labels:
        ok, rho = run(toy, [("T", 0)], [label], StateVector(0),
                      f"gadget-T-{label}")
        fid = dn.state_fidelity(dn.MT @ EIGENSTATE_VECTORS[label], rho)
        errs.append(1 - fid if ok else 1.0)
    err = worst_of(errs)
    report.add_check("gadget_T_infidelity", err, 1e-9, err <= 1e-9)
    return report, None


def encoder_final_keys(verifier, t_out) -> list[str]:
    """The decryption keys of a run, recomputed apart from
    ``QotpVerifier.final_keys``: each wire's pad, teleport-out correction
    and register key, pulled back through the trap encoder E as a Clifford
    (E^dag q E), read at the data position."""
    trap = verifier.trap
    encoder = CliffordUnitary(
        trap.n, tuple(trap.encoding_ops(list(range(trap.n)))))
    dpos = trap.data_position()
    keys = []
    for i in range(verifier.program.n_b):
        xm, zm = t_out[i]
        pad = verifier.output_keys[i]
        key = verifier.keys[verifier.data[verifier.program.n_a + i]]
        pulled = encoder.conjugate(PauliOperator.from_masks(
            trap.n, pad.x ^ xm ^ key.x, pad.z ^ zm ^ key.z))
        keys.append(PauliOperator.from_masks(
            1, pulled.x >> dpos & 1, pulled.z >> dpos & 1).to_label())
    return keys


def run_qotp(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    config_keys(config, "seed", "channel", "code", "n_b", "b_labels",
                "backend", "transport", "kappa")
    channel = config_channel(config, [["H", 0]])
    code_cfg = config.get("code", {})
    if not isinstance(code_cfg, dict):
        raise ValueError(f"code must be an object, got {code_cfg!r}")
    config_keys(code_cfg, "base", "levels", name="code")
    base = config_code(code_cfg)
    # every backend's density_of, which reads the output, stops at 12
    n_b = config_int(config, "n_b", max(g[1] for g in channel) + 1
                     if all(len(g) == 2 for g in channel) else 2, hi=12)
    b_labels = tuple(config_choice_list(config, "b_labels", ["0"] * n_b,
                                        tuple(EIGENSTATE_VECTORS),
                                        length=n_b))
    backend = config_choice(config, "backend", "auto",
                            ("auto", "sv", "tab", "sum"))
    transport = config_choice(config, "transport", "brotp",
                              ("direct", "brotp"))
    kappa = config_int(config, "kappa", 16)
    # the smaller fields stay in cotp for its exhaustive checks; at kappa 2,
    # a^3 = 1, so one flip in two blocks three apart leaves the tag as it is
    if kappa not in (16, 64):
        raise ValueError(f"kappa must be 16 or 64, got {kappa}: a carried "
                         "state of m MAC blocks is forged with probability "
                         "up to m/2^kappa")
    program = compile_controlled_program(channel, 0, n_b)
    kind = pick_backend(program, base, backend)
    module = {"sv": statevector, "tab": tableau, "sum": stabsum}[kind]
    cap = module.MAX_QUBITS
    # a run's peak of live qubits, all held at teleport-out
    need = 3 * base.n * (3 * n_b + 1 + program.uses_t_helper)
    if need > cap:
        raise ValueError(
            f"backend {backend!r} runs on {module.__name__}, capped at {cap} "
            f"qubits, but code {code_cfg!r} (n = {base.n}) with channel "
            f"{[list(g) for g in channel]!r} and n_b = {n_b} needs {need}: "
            f"teleport-out holds 9n qubits per B wire, 3n for Ctl and 3n "
            f"for Et0 when the channel holds T")
    result, inst = honest_receiver_run(
        program, base, seed, b_labels=b_labels, backend=kind,
        transport=transport, kappa=kappa)
    ideal = StateVector()
    for label in b_labels:
        ideal.append_amplitudes(EIGENSTATE_VECTORS[label])
    for gate in channel:
        ideal.apply_gate(*gate)
    want = ideal.amplitudes()
    report = ExperimentReport("qotp-run", config)
    report.add_check("accepted", int(result.accepted), 1, result.accepted)
    rho = result.session.state.density_of(result.b_out_qubits)
    fidelity = float(np.real(want.conj() @ rho @ want))
    report.add_check("output_fidelity", fidelity, 1 - 1e-9,
                     fidelity >= 1 - 1e-9)
    recomputed = encoder_final_keys(inst.oracle.audit, result.t_out)
    report.extra["s_hat"] = list(result.s_hat)
    report.extra["s_hat_recomputed"] = recomputed
    report.add_check("final_key_equation",
                     int(list(result.s_hat) == recomputed), 1,
                     list(result.s_hat) == recomputed)
    report.extra["transcript"] = {
        "t_in": list(result.t_in),
        "records": ["".join(str(b) for b in r) for r in result.records],
        "replies": ["".join(str(b) for b in r) for r in result.replies],
        "t_out": [[int(x), int(z)] for x, z in result.t_out],
    }
    report.extra["accepted"] = bool(result.accepted)
    report.extra["output_density"] = np.stack((rho.real, rho.imag),
                                              -1).tolist()
    report.extra["backend"] = inst.backend_kind
    return report, None


def run_qotp_attack(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    """Rejection rate for a logically nontrivial X attack on a magic
    register, over keyed runs (criterion 7)."""
    config_keys(config, "seed", "runs", "base", "levels", "channel",
                "attack_x_mask")
    runs = config_int(config, "runs", 10_000)
    base = config_code(config)
    channel = config_channel(config, [["Y", 0]])
    program = compile_controlled_program(channel, 0, 1)
    if not program.num_rounds:
        raise ValueError(
            f"channel {[list(g) for g in channel]!r} has no gadget round, "
            "so no magic register M0 to attack")
    pick_backend(program, base, "tab",
                 chosen_by="the tableau that qotp-attack runs on")
    n3 = 3 * base.n
    x_mask = config_int(config, "attack_x_mask", 0b111, lo=0,
                        hi=(1 << n3) - 1)
    attack = PauliOperator.from_masks(n3, x_mask, 0)

    def run(program, t):
        inst = QotpInstance(program, base, seed * 131071 + t, world="real",
                            backend="tab", transport="direct")
        return inst, inst.run(PauliAttackAdversary(
            initial_attacks=[("M0", attack)]))

    # runs from the third on replay; the third, the middle and the last
    # rerun on a fresh program, which keeps them on a plain tableau
    replayed = sorted({2, runs // 2, runs - 1}) if runs >= 3 else []
    rejects = misses = mismatches = 0
    kept = {}
    for t in range(runs):
        inst, result = run(program, t)
        rejects += result.cheated
        verdict = classify_pauli_attack(inst.trap, attack).verdict
        misses += result.cheated != (verdict == "reject")
        if t in replayed:
            kept[t] = inst, result
    for t, (inst, got) in kept.items():
        plain, want = run(compile_controlled_program(channel, 0, 1), t)
        mismatches += sum(v != vars(want)[f] for f, v in vars(got).items()
                          if f != "session")
        for a, b in zip(_read_after_run(inst, got),
                        _read_after_run(plain, want)):
            mismatches += not np.allclose(a, b, atol=1e-12)
    rate = rejects / runs
    bound = 1 - (2 / 3) ** (base.d / 2)
    phat, lo, hi = wilson_interval(rejects, runs)
    report = ExperimentReport("qotp-attack", config)
    report.add_check("rejection_rate", rate, bound, lo >= bound,
                     mode="monte-carlo")
    report.extra["ci"] = [lo, hi]
    report.add_check("attack_verdict_mismatches", misses, 0, misses == 0)
    report.add_check("replay_matches_tableau", mismatches, 0,
                     mismatches == 0)
    report.extra["replay_runs_compared"] = replayed or \
        "none: a run replays from the third run on"
    return report, None


def _read_after_run(inst: QotpInstance, result) -> tuple:
    """A run's output density and its control register's de-authentication
    (acceptance, density), read on a replay's ``final_state``."""
    ses = result.session
    if hasattr(ses.state, "final_state"):
        ses.state = ses.state.final_state()
    rho = ses.state.density_of(result.b_out_qubits)
    ok, out = ses.recover_register("Ctl", inst.oracle.audit.keys["Ctl"])
    return rho, ok, ses.state.density_of([out])


def run_sim_compare(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    config_keys(config, "seed", "cases")
    toy = build_toy_code()
    report = ExperimentReport("sim-compare", config)
    data_attack = PauliOperator.from_masks(3, 0b010, 0b001)
    magic_attack = PauliOperator.from_masks(3, 0b001, 0)  # X on one qubit
    # each case: (channel, adversary factory), checked in this order
    table = {
        "dummy": ([("X", 0)], DummyAdversary),
        "w-only": ([("X", 0)], WOnlyAdversary),
        # data-register tampering is reproducible exactly by the simulator
        "data-attack": ([("X", 0)], lambda: PauliAttackAdversary(
            initial_attacks=[("Bt0", data_attack)], entangle_w=True)),
        "magic-attack": ([("Y", 0)], lambda: PauliAttackAdversary(
            initial_attacks=[("M0", magic_attack)])),
    }
    cases = config_choice_list(config, "cases", list(table), list(table))
    for name, (channel, factory) in table.items():
        if name not in cases:
            continue
        td, rejected = compare_real_vs_sim(channel, 0, 1, toy, seed,
                                           adversary_factory=factory)
        case = name.replace("-", "_")
        check = case + "_trace_distance"
        expected = 0.0
        if name == "magic-attack":
            expected, _, eps = exact_attack_probabilities(
                toy, magic_attack.weight())
            report.add_check(check, td, 2 * eps, td <= 2 * eps + 1e-9,
                             mode="exhaustive")
            report.extra["magic_attack_eps_exact"] = eps
            # exactly 0 here: the worlds differ only in where the channel's
            # Y acts (the control's CNOT between the two K gadgets, or the
            # ideal call before them), every gadget outcome is uniform
            # whatever the data, and the attack leaves a Pauli, which meets
            # Y up to a phase
            check += "_exact"
        report.add_check(check, td, 1e-9, td <= 1e-9, mode="exhaustive")
        # the verdict, which both worlds share, against the trap's exact
        # count: the magic attack is rejected with its exact reject
        # probability; nothing else is rejected (the data attack hits Bt0
        # after the last trap check, so no trap count applies to it)
        off = worst_of(abs(weight - expected) for weight in rejected)
        report.add_check(case + "_reject_weight", off, 1e-12, off <= 1e-12,
                         mode="exhaustive")
        report.extra[case + "_reject_weights"] = list(rejected)
    return report, None


def run_teleport_check(config: dict,
                       seed: int) -> tuple[ExperimentReport, None]:
    """Teleportation identities: plain, through-authentication, and under
    product Pauli attacks (dense comparison)."""
    config_keys(config, "seed")
    rng = rngmod.stream(seed, "teleport")
    report = ExperimentReport("teleport-check", config)
    c_ops = [("H", 0), ("K", 0)]

    def teleport(ops, attacked):
        """Teleport a random |psi> through ``ops``, under a random product
        Pauli attack (U_d, U_in, U_out) when ``attacked``: the Bell outcome
        T and the infidelity of the output to U_out C U_in^T T U_d |psi>."""
        sv = StateVector(0)
        psi = dn.random_state(1, rng)
        d = sv.append_amplitudes(psi)[0]
        in_ids, out_ids = make_teleport_through(sv, ops, 1)
        u_d = u_in = u_out = np.eye(2)
        if attacked:
            atk = [PauliOperator(1, int(rng.integers(0, 2)),
                                 int(rng.integers(0, 2)), 0)
                   for _ in range(3)]
            for p, ids in zip(atk, ([d], in_ids, out_ids)):
                sv.apply_pauli(p, ids)
            u_d, u_in, u_out = (dn.pauli_matrix(p) for p in atk)
        xm, zm = bell_measure(sv, [(d, in_ids[0])], rng)
        t = dn.pauli_matrix(PauliOperator.from_masks(1, xm, zm))
        want = u_out @ dn.circuit_matrix(1, ops) @ u_in.T @ t @ u_d @ psi
        if attacked:
            want = want / np.linalg.norm(want)
        return (xm, zm), 1 - dn.state_fidelity(want, sv.density_of(out_ids))

    # plain teleport: all outcomes observed, output = T|psi>
    plain = [teleport([], False) for _ in range(64)]
    worst = worst_of([0.0, *(inf for _, inf in plain)])
    seen = {outcome for outcome, _ in plain}
    report.add_check("plain_teleport_infidelity", worst, 1e-9, worst <= 1e-9)
    report.add_check("all_outcomes_observed", len(seen), 4, len(seen) == 4)
    # through a Clifford: out = C T |psi>
    worst = worst_of([0.0, *(teleport(c_ops, False)[1] for _ in range(32))])
    report.add_check("through_clifford_infidelity", worst, 1e-9,
                     worst <= 1e-9)
    # product Pauli attack: out = U_out C U_in^T T U_d |psi>
    worst = worst_of([0.0, *(teleport(c_ops, True)[1] for _ in range(32))])
    report.add_check("attacked_teleport_infidelity", worst, 1e-9,
                     worst <= 1e-9)
    return report, None


def run_brotp_check(config: dict, seed: int) -> tuple[ExperimentReport, None]:
    config_keys(config, "seed")
    report = ExperimentReport("brotp-check", config)
    # forgery bound at kappa=8, exhaustive
    kappa = 8
    m, sigma = 0x3D, 0xA7
    consistent = [(a, sigma ^ gf_mul(a, m, kappa)) for a in range(256)]
    best = 0
    for m_forge in (0x00, 0x3C, 0xFF):
        for s_forge in range(256):
            hits = sum(1 for a, b in consistent
                       if gf_mul(a, m_forge, kappa) ^ b == s_forge)
            best = max(best, hits)
    report.add_check("mac_forgery_probability", best / 256, 2 ** -8,
                     best == 1, mode="exhaustive")
    # honest chain == ideal, exhaustively over 1-bit domains
    mismatch = 0
    for gseed in range(4):
        gs = _toy_rounds(gseed)
        for bits in range(8):
            inputs = [b"1" if (bits >> i) & 1 else b"0" for i in range(3)]
            prog = brotp_compile(gs, b"\x02", 16, 1,
                                 rngmod.stream(seed, f"brotp-{gseed}-{bits}"))
            real = run_honest_chain(prog, inputs)
            ideal = BrOtpIdeal(gs, b"\x02")
            want = [ideal.execute(i + 1, inputs[i]) for i in range(3)]
            if real != want:
                mismatch += 1
    report.add_check("honest_chain_matches_ideal", mismatch, 0, mismatch == 0,
                     mode="exhaustive")
    # out-of-order aborts
    aborts = 0
    trials = 0
    for gseed in range(4):
        gs = _toy_rounds(gseed)
        for first in (2, 3):
            prog = brotp_compile(gs, b"\x00", 16, 1,
                                 rngmod.stream(seed, f"order-{gseed}-{first}"))
            trials += 1
            if brotp_query(prog, first, b"0", b"") is None:
                aborts += 1
    report.add_check("out_of_order_aborts", aborts, trials, aborts == trials)
    return report, None


def _toy_rounds(seed, ell=3):
    gen = np.random.default_rng(seed)
    tables = [
        {(b, s): (bytes([gen.integers(0, 2)]), bytes([gen.integers(0, 256)]))
         for b in (b"0", b"1") for s in range(256)}
        for _ in range(ell)
    ]

    def g1(a, b1):
        return tables[0][(b1, a[0])]

    def make_gi(i):
        def gi(b_i, s_prev):
            return tables[i][(b_i, s_prev[0])]
        return gi

    return [g1] + [make_gi(i) for i in range(1, ell)]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# each handler takes the config and the seed ``run_experiment`` checked
COMMANDS = {
    "twirl-check": run_twirl_check,
    "trap-security": run_trap_security,
    "trap-distance": run_distance_exhaustive,
    "gadget-check": run_gadget_check,
    "qotp-run": run_qotp,
    "qotp-attack": run_qotp_attack,
    "sim-compare": run_sim_compare,
    "teleport-check": run_teleport_check,
    "brotp-check": run_brotp_check,
}


def run_experiment(command: str, config: dict) -> tuple[ExperimentReport, str | None]:
    handler = COMMANDS.get(command)
    if handler is None:
        raise ValueError(f"unknown command {command!r}")
    seed = config.get("seed", 1)
    if isinstance(seed, bool) or not isinstance(seed, int) \
            or not 0 <= seed < 2 ** 64:
        raise ValueError(
            f"seed must be a 64-bit unsigned integer, got {seed!r}")
    started = time.monotonic()
    report, csv_text = handler(config, seed)
    report.wall_clock = time.monotonic() - started
    return report, csv_text
