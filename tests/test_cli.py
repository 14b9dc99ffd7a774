import json
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpqec import SimConfig
from jumpqec.cli import (
    ConfigError,
    canonical_config,
    config_digest,
    execute,
    parse_config,
    pauli_coefficients,
)
from jumpqec.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z

from helpers import rank3_channels, relaxation_channels

SIGMA_MINUS_JSON = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]


def minimal_doc(**extra):
    doc = {
        "n": 1,
        "dt": 0.01,
        "duration": 1.0,
        "channels": [{"qubit": 0, "E": SIGMA_MINUS_JSON}],
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        assert cfg.seed == 0
        assert cfg.trajectories == 1
        assert cfg.feedback_enabled and cfg.driving_enabled
        assert cfg.initial_state == 0
        assert cfg.code_override is None
        ch = cfg.channels[0]
        assert ch.label == 0 and ch.gamma == 0.0 and ch.phi == 0.0
        assert_allclose(ch.operator, [[0, 1], [0, 0]])

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["dt"]
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(json.dumps(doc))

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="'fidelity'"):
            parse_config(json.dumps(minimal_doc(fidelity=1)))

    def test_unknown_channel_field(self):
        doc = minimal_doc()
        doc["channels"][0]["rate"] = 2.0
        with pytest.raises(ConfigError, match=r"channels\[0\].*'rate'"):
            parse_config(json.dumps(doc))

    def test_malformed_json_location(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('{"n": 1,\n "dt": }')

    def test_channel_qubit_out_of_range(self):
        doc = minimal_doc(n=4)
        doc["channels"][0]["qubit"] = 5
        with pytest.raises(ConfigError, match=r"channels\[0\]\.qubit"):
            parse_config(json.dumps(doc))

    def test_bad_operator_shape(self):
        doc = minimal_doc()
        doc["channels"][0]["E"] = [[[0, 0], [1, 0]]]
        with pytest.raises(ConfigError, match=r"channels\[0\]\.E"):
            parse_config(json.dumps(doc))

    def test_bad_complex_entry(self):
        doc = minimal_doc()
        doc["channels"][0]["E"] = [[[0, 0], [1, 0]], [[0, 0], "x"]]
        with pytest.raises(ConfigError, match=r"channels\[0\]\.E\[1\]\[1\]"):
            parse_config(json.dumps(doc))

    def test_negative_gamma(self):
        doc = minimal_doc()
        doc["channels"][0]["gamma"] = -0.5
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(json.dumps(doc))

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(json.dumps(minimal_doc(dt=True)))

    def test_initial_state_pairs(self):
        doc = minimal_doc(n=2, initial_state=[[1, 0], [0, 1]])
        doc["channels"] = [
            {"qubit": 0, "E": SIGMA_MINUS_JSON},
            {"qubit": 1, "E": SIGMA_MINUS_JSON},
        ]
        cfg = parse_config(json.dumps(doc))
        assert cfg.initial_state == (1 + 0j, 1j)

    def test_initial_state_bad_pair(self):
        with pytest.raises(ConfigError, match=r"initial_state\[0\]"):
            parse_config(json.dumps(minimal_doc(initial_state=[[1, 0, 0]])))

    def test_code_override_shape(self):
        doc = minimal_doc(n=2, code_override=[[[0, 0, 1]]])
        doc["channels"] = []
        with pytest.raises(ConfigError, match=r"code_override\[0\]"):
            parse_config(json.dumps(doc))

    def test_code_override_parsed(self):
        doc = minimal_doc(n=2, code_override=[[[0, 0, 1], [0, 0, 1]]])
        doc["channels"] = []
        cfg = parse_config(json.dumps(doc))
        assert_allclose(cfg.code_override[0], [[0, 0, 1], [0, 0, 1]])

    def test_simconfig_violations_become_config_errors(self):
        with pytest.raises(ConfigError, match="duration"):
            parse_config(json.dumps(minimal_doc(duration=0.001)))


class TestCanonicalConfig:
    def test_round_trip_and_digest(self):
        cfg = SimConfig(
            n=2,
            channels=relaxation_channels(2, gamma=0.4, phi=1.1),
            dt=0.01,
            duration=2.0,
            seed=17,
            trajectories=8,
            feedback_enabled=False,
            initial_state=(1.0, 0.5j),
            code_override=(np.tile([0.0, 0, 1.0], (2, 1)),),
        )
        doc = canonical_config(cfg)
        rebuilt = parse_config(json.dumps(doc))
        assert canonical_config(rebuilt) == doc
        assert config_digest(rebuilt) == config_digest(cfg)

    def test_digest_sensitive_to_seed(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        other = parse_config(json.dumps(minimal_doc(seed=1)))
        assert config_digest(cfg) != config_digest(other)


class TestPauliCoefficients:
    def test_identity(self):
        assert pauli_coefficients(np.eye(4)) == [("II", 1.0)]

    def test_single_qubit(self):
        assert pauli_coefficients(SIGMA_Z) == [("Z", 1.0)]

    def test_driving_form(self):
        ham = 0.25 * (np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X))
        assert pauli_coefficients(ham) == [("XY", 0.25), ("YX", 0.25)]

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        matrix = raw + raw.conj().T
        terms = pauli_coefficients(matrix, tol=0.0)
        basis = {"I": np.eye(2), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
        rebuilt = np.zeros((8, 8), dtype=complex)
        for label, value in terms:
            product = np.array([[1.0]], dtype=complex)
            for letter in label:
                product = np.kron(product, basis[letter])
            rebuilt += value * product
        assert np.max(np.abs(rebuilt - matrix)) <= 1e-10


def rank3_doc(n):
    cfg = SimConfig(
        n=n, channels=rank3_channels(n), dt=1e-3, duration=1e-3
    )
    return canonical_config(cfg)


class TestExecute:
    def test_synthesize(self, tmp_path, capsys):
        config = write_config(tmp_path, rank3_doc(4))
        out = str(tmp_path / "synth.json")
        code, manifest = execute(["synthesize", "--config", config, "--output", out])
        assert code == 0
        captured = capsys.readouterr()
        assert "logical qubits: 2" in captured.out
        report = json.loads((tmp_path / "synth.json").read_text())
        assert report["logical_count"] == 2
        assert len(report["generators"]) == 2
        assert report["sector_map"] == {"x": 1, "y": 0, "z": 0}
        assert manifest.outputs == (out,)
        assert manifest.config_digest == report["config_digest"]

    def test_verify_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, rank3_doc(4))
        out = str(tmp_path / "verify.json")
        code, manifest = execute(["verify", "--config", config, "--output", out])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        assert report["checks"]["correctability"]["passed"] is True
        assert report["checks"]["nojump_invariance"]["passed"] is True
        assert "correctability: PASS" in capsys.readouterr().out

    def test_verify_wrong_code_fails(self, tmp_path, capsys):
        doc = canonical_config(
            SimConfig(
                n=2,
                channels=relaxation_channels(2),
                dt=0.01,
                duration=1.0,
                code_override=(np.tile([0.0, 0, 1.0], (2, 1)),),
            )
        )
        config = write_config(tmp_path, doc)
        out = str(tmp_path / "verify.json")
        code, _ = execute(["verify", "--config", config, "--output", out])
        assert code == 1
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is False
        assert report["checks"]["correctability"]["passed"] is False
        assert "skipped" in report["checks"]["nojump_invariance"]
        assert "correctability: FAIL" in capsys.readouterr().out

    def test_simulate_reproducible_csv(self, tmp_path, capsys):
        doc = minimal_doc(duration=0.5, trajectories=5, seed=4)
        config = write_config(tmp_path, doc)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert execute(["simulate", "--config", config, "--output", out_a])[0] == 0
        assert execute(["simulate", "--config", config, "--output", out_b])[0] == 0
        capsys.readouterr()
        bytes_a = (tmp_path / "a.csv").read_bytes()
        assert bytes_a == (tmp_path / "b.csv").read_bytes()
        lines = bytes_a.decode().splitlines()
        assert lines[0] == "time,mean_fidelity,std_fidelity,cumulative_jumps"
        assert len(lines) == 52

    def test_simulate_dt_override_changes_grid(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.5))
        out = str(tmp_path / "c.csv")
        code, _ = execute(
            ["simulate", "--config", config, "--output", out, "--dt", "0.025"]
        )
        assert code == 0
        capsys.readouterr()
        assert len((tmp_path / "c.csv").read_text().splitlines()) == 22

    def test_existing_output_needs_force(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.1))
        out = str(tmp_path / "d.csv")
        assert execute(["simulate", "--config", config, "--output", out])[0] == 0
        code, manifest = execute(["simulate", "--config", config, "--output", out])
        assert code == 2 and manifest is None
        assert "--force" in capsys.readouterr().err
        code, _ = execute(
            ["simulate", "--config", config, "--output", out, "--force"]
        )
        assert code == 0
        capsys.readouterr()

    def test_seed_override_enters_digest(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.1))
        out_a = str(tmp_path / "e.csv")
        out_b = str(tmp_path / "f.csv")
        _, man_a = execute(["simulate", "--config", config, "--output", out_a])
        _, man_b = execute(
            ["simulate", "--config", config, "--output", out_b, "--seed", "9"]
        )
        capsys.readouterr()
        assert man_a.config_digest != man_b.config_digest

    def test_oracle_compare(self, tmp_path, capsys):
        doc = minimal_doc(
            duration=0.4,
            trajectories=50,
            feedback=False,
            driving=False,
            code_override=[[[0, 0, -1]]],
        )
        config = write_config(tmp_path, doc)
        out = str(tmp_path / "g.csv")
        code, _ = execute(["oracle-compare", "--config", config, "--output", out])
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "time,trace_distance"
        assert len(lines) == 42
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_oracle_compare_refuses_oversized_density(self, tmp_path, capsys):
        doc = minimal_doc(
            n=10,
            dt=1e-3,
            feedback=False,
            driving=False,
            channels=[{"qubit": q, "E": SIGMA_MINUS_JSON} for q in range(10)],
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "big.csv"
        started = time.monotonic()
        code, manifest = execute(
            ["oracle-compare", "--config", config, "--output", str(out)]
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and manifest is None
        assert not out.exists()
        err = capsys.readouterr().err
        assert "GiB" in err and "collect_density=False" in err

    def test_oracle_compare_refuses_feedback(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.1, trajectories=2))
        out = tmp_path / "i.csv"
        code, manifest = execute(
            ["oracle-compare", "--config", config, "--output", str(out)]
        )
        assert code == 2 and manifest is None
        assert "--no-feedback" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config(self, tmp_path, capsys):
        code, manifest = execute(
            ["simulate", "--config", str(tmp_path / "missing.json")]
        )
        assert code == 2 and manifest is None
        assert "cannot read config" in capsys.readouterr().err

    def test_schema_error_exit(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 1})
        code, _ = execute(["simulate", "--config", config])
        assert code == 2
        assert "missing required field" in capsys.readouterr().err

    def test_unknown_subcommand(self, tmp_path, capsys):
        assert execute(["frobnicate", "--config", "x"])[0] == 2
        capsys.readouterr()

    def test_odd_register_error_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, rank3_doc(3))
        code, manifest = execute(["synthesize", "--config", config])
        assert code == 2 and manifest is None
        err = capsys.readouterr().err
        assert "EvenQubitCountRequired" in err

    def test_uncorrectable_simulation_exit(self, tmp_path, capsys):
        doc = canonical_config(
            SimConfig(
                n=2,
                channels=relaxation_channels(2),
                dt=0.01,
                duration=0.1,
                code_override=(np.tile([0.0, 0, 1.0], (2, 1)),),
            )
        )
        config = write_config(tmp_path, doc)
        code, _ = execute(
            ["simulate", "--config", config, "--output", str(tmp_path / "h.csv")]
        )
        assert code == 1
        assert "CorrectabilityError" in capsys.readouterr().err
