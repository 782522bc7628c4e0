"""Driver, report, and CLI contract tests."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qotp_lab import cli
from qotp_lab.backends import StateVector
from qotp_lab.harness import (COMMANDS, ExperimentReport, canonical_json,
                              emit_report, run_experiment, worst_of)


class TestCanonicalJson:
    def test_sorted_keys_and_fixed_floats(self):
        text = canonical_json({"b": 0.5, "a": [1, 2.0, True, None]})
        assert text == '{"a":[1,2.0,true,null],"b":0.5}\n'

    def test_seventeen_significant_digits(self):
        text = canonical_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        data = {"a": [1.5, -2, "s"], "b": {"c": False}}
        assert json.loads(canonical_json(data)) == data

    def test_same_report_twice_identical(self):
        r = ExperimentReport("demo", {"seed": 1})
        r.add_check("x", 0.1, 0.2, True)
        assert r.to_canonical() == r.to_canonical()

    def test_nonfinite_values_load(self):
        """NaN and infinite check values are written as the strings
        "NaN", "Infinity" and "-Infinity", so every report is valid JSON;
        null stays the value of a check with no value."""
        r = ExperimentReport("demo", {})
        r.add_check("x", float("nan"), 1e-9, False)
        r.add_check("y", np.float64("inf"), -np.inf, False)
        r.add_check("z", None, 1.0, False)
        checks = json.loads(r.to_canonical())["checks"]
        assert [(c["value"], c["bound"]) for c in checks] == [
            ("NaN", 1e-9), ("Infinity", "-Infinity"), (None, 1.0)]


class TestReports:
    def test_emit_and_reload(self, tmp_path):
        r = ExperimentReport("demo", {"seed": 3})
        r.add_check("value", 1.0, 2.0, True)
        r.wall_clock = 1.23
        paths = emit_report(r, str(tmp_path))
        with open(paths["report"]) as fh:
            data = json.load(fh)
        assert data["all_pass"] is True
        assert "wall_clock" not in data  # timing lives in the meta file
        with open(paths["meta"]) as fh:
            assert "wall_clock_seconds" in json.load(fh)

    def test_checks_carry_bounds(self):
        report, _ = run_experiment("twirl-check",
                                   {"seed": 5, "unitaries": 3})
        for check in report.checks:
            assert "bound" in check and "value" in check
            assert isinstance(check["pass"], bool)

    def test_nan_deviation_fails_its_check(self, monkeypatch):
        """A measurement that leaves the state NaN makes every teleport
        infidelity NaN, and each check reads NaN and fails; ``max`` would
        have dropped the NaNs after its first argument and passed 0.0."""
        measure = StateVector.measure

        def measure_to_nan(self, qubit, rng):
            out = measure(self, qubit, rng)
            self._amps = np.full_like(self._amps, np.nan)
            return out

        monkeypatch.setattr(StateVector, "measure", measure_to_nan)
        with np.errstate(invalid="ignore"):
            report, _ = run_experiment("teleport-check", {"seed": 9})
        checks = {c["name"]: c for c in report.checks
                  if c["name"].endswith("_infidelity")}
        assert len(checks) == 3
        for check in checks.values():
            assert np.isnan(check["value"]) and not check["pass"], check
        assert worst_of([0.0, 2.0, 1.0]) == 2.0
        assert np.isnan(worst_of([0.0, 1.0, float("nan")]))


class TestDeterminism:
    @pytest.mark.parametrize("command,config", [
        ("twirl-check", {"seed": 9, "unitaries": 4}),
        ("trap-security", {"seed": 9, "attacks": 3, "samples": 500}),
        ("brotp-check", {"seed": 9}),
        ("qotp-run", {"seed": 9, "channel": [["Y", 0]], "n_b": 1,
                      "backend": "tab"}),
    ])
    def test_same_seed_byte_identical(self, command, config):
        r1, c1 = run_experiment(command, dict(config))
        r2, c2 = run_experiment(command, dict(config))
        assert r1.to_canonical() == r2.to_canonical()
        assert c1 == c2

    # sha256 of report.to_canonical() and of the CSV (None: no CSV). A
    # refactor keeps these; a change that alters a report on purpose
    # records the new digests and says why.
    @pytest.mark.parametrize("command,config,report_sha,csv_sha", [
        ("trap-security", {"seed": 9, "attacks": 3, "samples": 500},
         "3b67722ea7c75c0ccd5571b5c8f3d54bb19a5c9f3648be774c3032488b41b167",
         "16f4cfffa67babb9cf4db2f41e1ed82894417f0023a013d801d0c25aa024a1d6"),
        ("trap-distance", {"seed": 9, "permutations": 20},
         "b2e0449575f083849d867f3162cd6768aa633789f90c16e6b6f9f9542a03274f",
         None),
        ("qotp-attack", {"seed": 9, "runs": 20},
         "6f819f9a1ec1f96ccca3dd5cd260c20a4f51e95a00a86ac883aa66bf2699a4cb",
         None),
        ("sim-compare", {"seed": 9, "cases": ["dummy", "data-attack"]},
         "fae6b52d3a5f51f296ca2c2346b30cb88312222197fde582e14210999d81d16f",
         None),
        ("qotp-run", {"seed": 9, "channel": [["T", 0]],
                      "code": {"base": "toy"}, "backend": "sv"},
         "f168c56590d053234ad72b8ab7c5d34499037c19526dab6c948b42098fc16919",
         None),
        ("qotp-run", {"seed": 9, "channel": [["K", 0]], "b_labels": ["+"],
                      "backend": "sum"},
         "882c9f50162e8b3555b692a013dc64a3e12739b6100edd94ff03d185aeda6042",
         None),
        ("gadget-check", {"seed": 5},
         "532a9217ff7804882623b6ada29ce56a2293897f2f9d275f7580948a29883077",
         None),
        ("brotp-check", {"seed": 9},
         "8bf767e9067b9b2a21a83bfbc0e019d06dba12455664f55526fe01af34b98eac",
         None),
        # the teleport resource, and the H-magic pair on the sum
        ("teleport-check", {"seed": 9},
         "a863b9ccb1612e17c379480f7970cbf424478ef765bc361a92bfce47a19d82c6",
         None),
        ("qotp-run", {"seed": 9, "channel": [["H", 0]], "b_labels": ["1"],
                      "backend": "sum"},
         "ea74fb6f6da53edcdb02b414c21450de1a66cf53c845bfb5e2d54dc9f524c304",
         None),
        # a keyed run on the distance-9 code: the concatenated decoder
        ("qotp-run", {"seed": 9, "channel": [["Y", 0]],
                      "code": {"base": "steane", "levels": 2},
                      "b_labels": ["+"], "backend": "tab"},
         "8b4c4cf5ef5d94d0ee053508501279a8ce128a3eaaf6c86bd229ee2cc9fc727b",
         None),
        # the W-only adversary and the simulator's EPR pairs
        ("sim-compare", {"seed": 9, "cases": ["w-only"]},
         "6ab1e10f4fb0b36f1c089ec2b56709f4c69248b92a9876c59f24f1899c68d5c5",
         None),
        ("twirl-check", {"seed": 9},
         "70f64e35590ed71f2df749c1620fe7f74cd09e673718d0bbcbd3f1015edb69a8",
         None),
        # the one two-qubit run on the sum; its density has 1e-16 residues
        ("qotp-run", {"seed": 9, "channel": [["CNOT", 0, 1]], "n_b": 2,
                      "b_labels": ["+", "0"], "backend": "sum"},
         "3be252bbc2fb6e96d4d4ad1cd687a06ea5af8cc123a3fdc7afacac4c7e779934",
         None),
    ])
    def test_golden_digest(self, command, config, report_sha, csv_sha):
        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        report, csv_text = run_experiment(command, dict(config))
        assert sha(report.to_canonical()) == report_sha
        assert (csv_text and sha(csv_text)) == csv_sha

    def test_golden_digest_distance_nine(self):
        # three words per mask (3n = 147 > 64); every pair, 97,020 attacks
        # per permutation
        report, _ = run_experiment(
            "trap-distance", {"levels": 2, "permutations": 2})
        assert hashlib.sha256(report.to_canonical().encode()).hexdigest() \
            == "4bcf95b1f7bc521c35cdea668f62799f8275a1c44fefb78aedcd971560e6c162"

    def test_zero_hit_rows_pass_at_distance_nine(self):
        # the exact placement probability, 2.57e-19, is below the 1e-18
        # that float cancellation once left as the zero-hit lower bound
        report, csv_text = run_experiment(
            "trap-security", {"levels": 2, "attack_weight": 5, "attacks": 2,
                              "samples": 100})
        assert report.all_pass, report.to_canonical()
        assert all(line.split(",")[5] == "0"
                   for line in csv_text.splitlines()[1:])


# every key each command reads, and the malformed values each one is tried
# with; the values are all invalid, never a large valid size, which would
# validate and then run for as long as it asks
CONFIG_KEYS = {
    "twirl-check": ("seed", "unitaries"),
    "trap-security": ("seed", "base", "levels", "attack_weight", "attacks",
                      "samples"),
    "trap-distance": ("seed", "base", "levels", "permutations"),
    "gadget-check": ("seed",),
    "qotp-run": ("seed", "channel", "code", "n_b", "b_labels", "backend",
                 "transport", "kappa"),
    "qotp-attack": ("seed", "runs", "base", "levels", "channel",
                    "attack_x_mask"),
    "sim-compare": ("seed", "cases"),
    "teleport-check": ("seed",),
    "brotp-check": ("seed",),
}
# keys a command once read and now refuses as unknown, whatever the value:
# the twirl bound is fixed at 1e-10, and trap-distance sweeps every pair
RETIRED_KEYS = {"twirl-check": ("tolerance",),
                "trap-distance": ("limit_pairs",)}
MALFORMED = (None, True, [], {"?": 1}, -7, "?")
FUZZED_CONFIGS = (
    [(command, {key: value}) for table in (CONFIG_KEYS, RETIRED_KEYS)
     for command, keys in table.items()
     for key in keys for value in MALFORMED]
    + [(command, {"no_such_key": 1}) for command in COMMANDS])


class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        return subprocess.run(
            [sys.executable, "-m", "qotp_lab.cli", *args],
            capture_output=True, text=True, env=env)

    def test_pass_exit_zero(self, tmp_path):
        res = self._run("twirl-check", "--seed", "3",
                        "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert "[PASS]" in res.stdout

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_t_on_steane_reads_its_output(self, tmp_path, capsys, seed):
        """T at Steane scale ends on the stabilizer sum with k = 20 or
        more; its output is read from Pauli expectations, so the run
        passes every check."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": [["T", 0]],
                                   "code": {"base": "steane"}}))
        out_dir = tmp_path / "out"
        code = cli.main(["qotp-run", "--config", str(cfg), "--seed",
                         str(seed), "--out", str(out_dir)])
        assert (code, capsys.readouterr().err) == (0, "")
        report = json.loads((out_dir / "qotp-run.report.json").read_text())
        check, = (c for c in report["checks"]
                  if c["name"] == "output_fidelity")
        assert check["value"] >= 1 - 1e-9 and check["pass"]
        assert report["extra"]["backend"] == "sum"

    @pytest.mark.parametrize("seed", [-1, 1.5, True, 2 ** 70],
                             ids=["negative", "float", "bool", "past-64-bit"])
    def test_bad_seed_refused_by_the_api(self, seed):
        """The seed rule lives in ``run_experiment``, so library callers
        cannot run one seed's streams under another seed's name."""
        with pytest.raises(ValueError, match="seed must be"):
            run_experiment("twirl-check", {"seed": seed, "unitaries": 1})

    def test_bad_seed_one_line_exit_two(self, tmp_path):
        res = self._run("twirl-check", "--seed", "-1",
                        "--out", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "configuration error: seed must be a 64-bit unsigned integer, "
            "got -1"], res.stderr

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        res = self._run("twirl-check", "--config", str(cfg))
        assert res.returncode == 2

    @pytest.mark.parametrize("command,config", [
        ("twirl-check", [1, 2]),
        ("qotp-attack", {"base": "nope"}),
        ("qotp-attack", {"runs": 0}),
        ("twirl-check", {"seed": "x"}),
        ("twirl-check", {"unitaries": "x"}),
        ("trap-distance", {"permutations": "many"}),
        ("qotp-run", {"channel": 5}),
        ("trap-security", {"attacks": 0}),
        ("trap-security", {"samples": 0}),
        ("twirl-check", {"tolerance": "x"}),
        ("sim-compare", {"cases": 5}),
        ("sim-compare", {"cases": ["nope"]}),
        ("qotp-run", {"b_labels": ["q"]}),
        ("qotp-run", {"backend": "nope"}),
        ("qotp-run", {"transport": "nope"}),
        ("twirl-check", {"unitaris": 3}),
        ("qotp-run", {"code": {"base": "toy", "levle": 2}}),
        ("qotp-run", {"channel": [["CNOT", 0]]}),
        ("qotp-run", {"channel": [["H"]]}),
        ("qotp-run", {"channel": [["H", 5]], "n_b": 1}),
        ("qotp-run", {"channel": [["CNOT", 0, 5]]}),
        ("qotp-attack", {"channel": [["X", 3]]}),
        ("qotp-run", {"channel": [["H", 0, 1]]}),
        ("qotp-run", {"channel": [["CNOT", 1, 1]]}),
        ("qotp-run", {"channel": [["SWAP", 0, 1]]}),
        ("qotp-attack", {"channel": [["SWAP", 0, 1]]}),
        ("qotp-attack", {"channel": [["X", 0]]}),
        ("qotp-attack", {"channel": [["H", 0]]}),
        ("qotp-run", {"channel": [["T", 0]], "backend": "tab"}),
        ("qotp-run", {"n_b": 13}),
        ("qotp-run", {"backend": "sv"}),
        ("qotp-run", {"code": {"base": "steane", "levels": 2},
                      "backend": "sum"}),
        ("qotp-run", {"code": {"base": "steane", "levels": 2}}),
        ("qotp-run", {"channel": [["X", 0], ["X", 1], ["X", 2]], "n_b": 3,
                      "code": {"base": "toy"}, "backend": "sv"}),
        ("qotp-run", {"channel": [["CNOT", 0, 1]], "n_b": 3,
                      "code": {"base": "toy"}, "backend": "auto"}),
    ], ids=["top-level-list", "unknown-base", "zero-runs", "string-seed",
            "string-unitaries", "string-permutations", "int-channel",
            "zero-attacks", "zero-samples", "string-tolerance", "int-cases",
            "unknown-case", "unknown-label", "unknown-backend",
            "unknown-transport", "unknown-key", "unknown-code-key",
            "one-wire-cnot", "no-wire-gate", "wire-past-n_b",
            "cnot-wire-past-n_b", "attack-wire-past-one",
            "two-wire-single-gate", "cnot-one-wire-twice",
            "alien-gate", "attack-alien-gate", "attack-no-gadget-round",
            "attack-t-bearing-channel", "t-channel-on-tableau",
            "n_b-past-dense-limit", "steane-past-dense-cap",
            "d9-past-sum-cap", "d9-auto-past-sum-cap",
            "toy-three-wires-past-dense-cap",
            "toy-cnot-three-wires-past-dense-cap"])
    def test_bad_config_one_line_exit_two(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        res = self._run(command, "--config", str(cfg),
                        "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        if isinstance(config, dict):  # the message names the bad key
            assert all(key in res.stderr for key in config), res.stderr
            assert all(repr(v) in res.stderr for v in config.values()), \
                res.stderr

    def test_attack_t_channel_names_the_tableau(self, tmp_path):
        """``qotp-attack`` has no ``backend`` key, so its refusal of a
        T-bearing channel says that it runs on the tableau."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": [["H", 0]]}))
        res = self._run("qotp-attack", "--config", str(cfg),
                        "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "channel [['H', 0]]" in res.stderr
        assert "the tableau that qotp-attack runs on" in res.stderr
        assert "backend" not in res.stderr, res.stderr

    @pytest.mark.parametrize("config", [
        {"channel": [["X", 0], ["X", 1]], "n_b": 2, "code": {"base": "toy"},
         "backend": "sv"},
        {"channel": [["CNOT", 0, 1]], "n_b": 2, "code": {"base": "toy"},
         "backend": "auto"},
    ], ids=["toy-two-wires-on-dense", "toy-cnot-auto-on-dense"])
    def test_two_toy_wires_fit_the_dense_cap(self, config):
        """Two toy wires peak at 21 live qubits, under the dense cap of
        24: each Bell measurement drops the pair it measured."""
        report, _ = run_experiment("qotp-run", dict(config))
        assert report.all_pass, report.checks

    @pytest.mark.parametrize("kappa", [2, 8])
    def test_weak_mac_field_refused(self, tmp_path, capsys, kappa):
        """``qotp-run`` refuses the MAC fields a carried state can be
        forged in, naming the forgery bound."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": kappa}))
        code = cli.main(["qotp-run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1, err
        assert f"got {kappa}" in err and "m/2^kappa" in err, err

    @pytest.mark.parametrize(
        "command,config", FUZZED_CONFIGS,
        ids=[f"{command}-{key}-{json.dumps(value, separators=(',', ':'))}"
             for command, config in FUZZED_CONFIGS
             for key, value in config.items()])
    def test_fuzzed_config_one_line_exit_two(self, tmp_path, capsys,
                                             command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1, err
        (key, value), = config.items()
        assert key in err and repr(value) in err, err
        if key == "no_such_key":  # the grid has every key the command reads
            accepted = ", ".join(sorted(CONFIG_KEYS[command]))
            assert f"(accepted: {accepted})" in err, err

    def test_unwritable_out_one_line_exit_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = self._run("twirl-check", "--out", str(blocker / "out"))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1, res.stderr
        assert res.stdout == ""  # refused before the experiment ran

    @pytest.mark.parametrize("name", ["twirl-check.report.json",
                                      "twirl-check.meta.json"])
    def test_unwritable_report_one_line_exit_two(self, tmp_path, capsys,
                                                 name):
        """A report file that cannot be written (a directory holds its
        name) is an output error, exit 2, not a failed check, and the
        files written before it are removed: no report without its meta."""
        (tmp_path / name).mkdir()
        code = cli.main(["twirl-check", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [err.strip()], err
        assert err.startswith("output error: ") and name in err, err
        assert not (tmp_path / "twirl-check.report.json").is_file()
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_unknown_command_exit_two(self):
        res = self._run("no-such-command")
        assert res.returncode == 2

    def test_report_replay_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"unitaries": 4}))
        for out in (out1, out2):
            res = self._run("twirl-check", "--config", str(cfg),
                            "--seed", "11", "--out", str(out))
            assert res.returncode == 0
        a = (out1 / "twirl-check.report.json").read_bytes()
        b = (out2 / "twirl-check.report.json").read_bytes()
        assert a == b


class TestReadme:
    def test_library_quick_start_runs(self):
        """The README's library quick start runs as written and leaves
        H|1><1|H on the output wire."""
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as fh:
            readme = fh.read()
        section = readme.split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(code, scope)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(scope["rho"], np.outer(minus, minus), atol=1e-9)

    def test_example_descriptor_runs(self, tmp_path):
        """The README's example ``qotp-run`` descriptor runs through the
        CLI with every check passing."""
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as fh:
            readme = fh.read()
        section = readme.split("Example program descriptor for `qotp-run`",
                               1)[1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert cli.main(["qotp-run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0


class TestGadgetCheck:
    def test_flagged_gadget_record_fails_its_check(self, monkeypatch):
        """A gadget run counts only when the verifier accepted every
        gadget record, not just the recovered registers: a verifier that
        decodes H-gadget records without the trap-role swap flags honest
        runs, and gadget-check must fail that gadget."""
        from qotp_lab.trap import TrapCode

        decode = TrapCode.decode_record
        monkeypatch.setattr(
            TrapCode, "decode_record",
            lambda self, c, hadamard=False: decode(self, c))
        report, _ = run_experiment("gadget-check", {"seed": 5})
        verdicts = {c["name"]: c["pass"] for c in report.checks}
        assert verdicts["gadget_H_exact"] is False
        assert verdicts["gadget_X_exact"] is True


class TestQotpRun:
    def test_compiles_once(self, monkeypatch):
        """``qotp-run`` runs the program it compiled and checked."""
        from qotp_lab import harness, qotp

        calls = []
        compile_program = qotp.compile_controlled_program

        def counting(*args):
            calls.append(args)
            return compile_program(*args)

        monkeypatch.setattr(harness, "compile_controlled_program", counting)
        monkeypatch.setattr(qotp, "compile_controlled_program", counting)
        report, _ = run_experiment("qotp-run", {
            "seed": 5, "channel": [["X", 0]], "backend": "tab"})
        assert report.all_pass
        assert len(calls) == 1


class TestFinalKeyAudit:
    @pytest.mark.parametrize("transport", ["direct", "brotp"])
    def test_swapped_key_bits_fail_the_audit(self, transport, monkeypatch):
        """The audit recomputes the keys through the trap encoder, apart
        from ``TrapCode.data_key``, so a final-key rule with its two bits
        swapped fails it on both transports; it passes unmutated."""
        from qotp_lab.trap import TrapCode

        config = {"seed": 5, "channel": [["X", 0]], "b_labels": ["+i"],
                  "backend": "tab", "transport": transport}
        report, _ = run_experiment("qotp-run", config)
        assert report.all_pass
        data_key = TrapCode.data_key

        def swapped(self, x, z):
            k = data_key(self, x, z)
            return (k >> 1) | (k & 1) << 1

        monkeypatch.setattr(TrapCode, "data_key", swapped)
        report, _ = run_experiment("qotp-run", config)
        verdicts = {c["name"]: c["pass"] for c in report.checks}
        assert verdicts["final_key_equation"] is False


def load_script(name: str, *parts: str):
    """The repository script at ``parts``, loaded by path as module
    ``name``."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1].joinpath(*parts)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    def test_every_traced_target_resolves(self):
        """The benchmark's per-layer tracer wraps package functions from
        outside; every owner it names must still have the attribute."""
        tracer = load_script("perfbench_tracer", "perfbench", "tracer.py")
        targets = tracer.targets()
        assert targets
        for owner, attr, name, _, _ in targets:
            assert callable(getattr(owner, attr, None)), name


class TestTableauBenchmark:
    def test_rows_run(self, monkeypatch):
        """``benchmarks/bench_tableau.py`` drives the tableau through its
        public calls; its gate, measure and block-measure rows run at tiny
        sizes, one pass each."""
        bench = load_script("bench_tableau", "benchmarks", "bench_tableau.py")
        monkeypatch.setattr(bench, "MIN_SECONDS", 1e-9)
        gates_s, measure_s = bench.bench_kernel(24, 40, 8, seed=7)
        assert gates_s > 0 and measure_s > 0
        assert bench.bench_blocks(42, seed=7) > 0
