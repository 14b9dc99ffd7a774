import builtins
import dataclasses
import errno
import itertools
import json
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jumpqec import (
    SimConfig,
    build_code,
    cli,
    codes,
    control,
    trajectory,
)
from jumpqec.cli import (
    ConfigError,
    canonical_config,
    config_digest,
    execute,
    parse_config,
    pauli_coefficients,
)
from jumpqec import channels as channel_module
from jumpqec.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, max_abs

from helpers import (
    dense_driving_hamiltonian,
    family_channel_set,
    rank3_channels,
    relaxation_channels,
)

PAULI_BASIS = {"I": np.eye(2), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def pauli_product(label):
    product = np.array([[1.0]], dtype=complex)
    for letter in label:
        product = np.kron(product, PAULI_BASIS[letter])
    return product

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

    def test_every_simconfig_field_has_one_key(self):
        # The table is the format: each field is read from, and written to,
        # exactly one key, and exactly the fields without defaults are required.
        fields = [field for field, _ in cli._FIELDS.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(SimConfig))
        assert cli._REQUIRED == {"n", "dt", "duration", "channels"}

    def test_missing_required_field(self):
        doc = minimal_doc()
        del doc["dt"]
        with pytest.raises(ConfigError, match="'dt'"):
            parse_config(json.dumps(doc))

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="'fidelity'"):
            parse_config(json.dumps(minimal_doc(fidelity=1)))
        with pytest.raises(ConfigError, match="^config: top level must be an object$"):
            parse_config(json.dumps([minimal_doc()]))

    def test_unknown_channel_field(self):
        doc = minimal_doc()
        doc["channels"][0]["rate"] = 2.0
        with pytest.raises(ConfigError, match=r"channels\[0\].*'rate'"):
            parse_config(json.dumps(doc))
        doc = minimal_doc(channels=[[0, SIGMA_MINUS_JSON]])
        with pytest.raises(ConfigError, match=r"^channels\[0\]: must be an object$"):
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
        # One row, then a row that is not a list.
        for operator in ([[[0, 0], [1, 0]]], [[[0, 0], [1, 0]], "row"]):
            doc = minimal_doc()
            doc["channels"][0]["E"] = operator
            with pytest.raises(
                ConfigError,
                match=r"^channels\[0\]\.E: must be a 2x2 array of \[re, im\] pairs$",
            ):
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
        with pytest.raises(ConfigError, match="^config: field 'n' has the wrong type$"):
            parse_config(json.dumps(minimal_doc(n="2")))

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
        for row in ([0, 1], [0, True, 0], "xyz"):
            doc["code_override"] = [[[0, 0, 1], row]]
            with pytest.raises(
                ConfigError,
                match=r"^code_override\[0\]\[1\]: needs an \[x, y, z\] triple$",
            ):
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

    def test_lexicographic_order_and_pruning(self):
        # IZX precedes XII although its later letters are larger; YYY sits
        # exactly at tol and is dropped.
        parts = {"ZYI": 0.25j, "XII": -0.75, "YYY": 0.125, "IZX": 0.5, "IIZ": 0.25}
        matrix = sum(value * pauli_product(label) for label, value in parts.items())
        assert pauli_coefficients(matrix, tol=0.125) == [
            ("IIZ", 0.25), ("IZX", 0.5), ("XII", -0.75), ("ZYI", 0.25j)
        ]

    def test_cut_follows_the_listing_scale(self):
        # Below a largest modulus of 1 the cut is tol itself; above, it grows
        # with the listing, in the pruning and in the printed imaginary part.
        small = 0.25 * pauli_product("XY") + 1e-11j * pauli_product("ZZ")
        assert [label for label, _ in pauli_coefficients(small)] == ["XY", "ZZ"]
        large = 1e6 * pauli_product("XY") + 1e-9j * pauli_product("ZZ")
        assert pauli_coefficients(large) == [("XY", 1e6)]
        assert cli._format_coeff(1e6 + 1e-9j, 1e6) == "+1e+06"
        assert cli._format_coeff(0.5 + 1e-9j, 0.5) == "(+0.5+1e-09j)"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_coefficient_is_the_trace(self, n):
        rng = np.random.default_rng(40 + n)
        raw = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        matrix = raw + raw.conj().T
        terms = pauli_coefficients(matrix, tol=0.0)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        assert [label for label, _ in terms] == labels
        for label, value in terms:
            expected = np.trace(pauli_product(label) @ matrix) / 2**n
            assert abs(value - expected) <= 1e-14

    @pytest.mark.parametrize(
        "n, channels",
        [
            (8, relaxation_channels(8, gamma=0.5)),
            (4, rank3_channels(4)),
            *(family_channel_set(np.random.default_rng(seed), pair)
              for seed, pair in [(3, False), (4, False), (5, True), (6, True)]),
        ],
        ids=["relaxation-8", "rank3-4", "one-a", "one-b", "pair-a", "pair-b"],
    )
    def test_listing_rebuilds_the_driving_hamiltonian(self, n, channels, capsys):
        # synthesize lists the Pauli coefficients of the plan's frame terms;
        # they are those of the textbook driving Hamiltonian.  The sector map
        # is the pair's, and null for one generator.
        cfg = SimConfig(n=n, channels=channels, dt=1e-3, duration=1e-3)
        _, chunks = cli._cmd_synthesize(cfg)
        capsys.readouterr()
        report = json.loads("".join(chunks))
        listed = [
            (term["pauli"], complex(term["re"], term["im"]))
            for term in report["hamiltonian"]
        ]
        code = build_code(channels, n)
        pair = len(code.generators) == 2
        assert report["sector_map"] == ({"x": 1, "y": 0, "z": 0} if pair else None)
        ham = dense_driving_hamiltonian(channels, code)
        expected = pauli_coefficients(ham)
        assert listed
        assert [label for label, _ in listed] == [label for label, _ in expected]
        assert max(abs(a - b) for (_, a), (_, b) in zip(listed, expected)) <= 1e-14
        rebuilt = sum(value * pauli_product(label) for label, value in listed)
        assert max_abs(rebuilt - ham) <= 1e-12


def rank3_doc(n):
    cfg = SimConfig(
        n=n, channels=rank3_channels(n), dt=1e-3, duration=1e-3
    )
    return canonical_config(cfg)


README_DOC = minimal_doc(
    n=2,
    dt=1e-3,
    duration=0.1,
    trajectories=4,
    seed=7,
    channels=[{"qubit": q, "E": SIGMA_MINUS_JSON, "gamma": 0.5} for q in range(2)],
)


#: Dephasing at rate 0 has no backaction: no driving, and a pass without it.
DEPHASING_DOC = minimal_doc(n=2, channels=[
    {"qubit": q, "E": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]} for q in range(2)
])


def tilted_readme_doc(eps):
    """README-shaped config overriding its synthesized code, with qubit 0's
    axis tilted by ``eps`` radians toward that qubit's backaction axis."""
    channels = parse_config(json.dumps(README_DOC)).channels
    (axes,) = build_code(channels, 2).generators
    axes = np.array(axes)
    backaction = channels[0].backaction.bloch
    backaction = backaction / np.linalg.norm(backaction)
    axes[0] = np.cos(eps) * axes[0] + np.sin(eps) * backaction
    return dict(README_DOC, code_override=[axes.tolist()])


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

        config = write_config(tmp_path, DEPHASING_DOC, "dephasing.json")
        code, _ = execute(
            ["synthesize", "--config", config, "--output", out, "--force"]
        )
        assert code == 0
        assert "\ndriving Hamiltonian: 0\n" in capsys.readouterr().out
        assert json.loads((tmp_path / "synth.json").read_text())["hamiltonian"] == []

    def test_verify_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, rank3_doc(4))
        out = str(tmp_path / "verify.json")
        code, manifest = execute(["verify", "--config", config, "--output", out])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        # One correctability verdict, on the gate's own threshold.
        checks = report["checks"]
        assert set(checks) == {"correctability", "nojump_invariance"}
        assert checks["correctability"]["threshold"] == codes.CORRECTABILITY_ATOL
        assert checks["correctability"]["passed"] is True
        assert checks["nojump_invariance"]["passed"] is True
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines[1:]] == [
            "correctability: PASS", "nojump_invariance: PASS"
        ]

    @pytest.mark.parametrize(
        "doc, flags",
        [
            (rank3_doc(4), []),
            (DEPHASING_DOC, ["--no-driving"]),
        ],
        ids=["driven", "undriven"],
    )
    def test_verify_builds_no_control_plan(
        self, tmp_path, capsys, monkeypatch, doc, flags
    ):
        def build_control_plan(*args):
            raise AssertionError("control plan built")

        monkeypatch.setattr(cli, "build_control_plan", build_control_plan)
        config = write_config(tmp_path, doc)
        out = str(tmp_path / "verify.json")
        code, _ = execute(["verify", "--config", config, "--output", out, *flags])
        assert code == 0
        assert "nojump_invariance: PASS" in capsys.readouterr().out

    def test_driven_verify_checks_correctability_once(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def counted(*args):
            calls.append(args)
            return codes.verify_correctability(*args)

        monkeypatch.setattr(cli, "verify_correctability", counted)
        monkeypatch.setattr(control, "verify_correctability", counted)
        config = write_config(tmp_path, rank3_doc(4))
        out = str(tmp_path / "verify.json")
        assert execute(["verify", "--config", config, "--output", out])[0] == 0
        assert "nojump_invariance: PASS" in capsys.readouterr().out
        assert len(calls) == 1

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

    def test_trajectories_override_sets_the_ensemble(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.1))
        out = str(tmp_path / "t.csv")
        code, manifest = execute(
            ["simulate", "--config", config, "--output", out, "--trajectories", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("3 trajectories, 10 steps:")
        parsed = parse_config((tmp_path / "config.json").read_text())
        assert manifest.config_digest == config_digest(replace(parsed, trajectories=3))
        # Every other override flag sets its own field, and only that one.
        for flags, field, value in [
            (["--seed", "9"], "seed", 9),
            (["--dt", "0.025"], "dt", 0.025),
            (["--no-feedback"], "feedback_enabled", False),
            (["--no-driving"], "driving_enabled", False),
        ]:
            code, manifest = execute(
                ["simulate", "--config", config, "--output", out, "--force", *flags]
            )
            assert code == 0, flags
            expected = config_digest(replace(parsed, **{field: value}))
            assert manifest.config_digest == expected, flags
        capsys.readouterr()

    @pytest.mark.parametrize(
        "initial_state, message",
        [
            (1, "initial_state index 1 outside the 1-dimensional codespace"),
            ([[1, 0], [0, 0]], "initial_state needs 1 codespace coefficients, got 2"),
            ([[0, 0]], "initial_state coefficients have zero norm"),
        ],
        ids=["index", "count", "zero-norm"],
    )
    def test_initial_state_outside_the_codespace_exits_2(
        self, tmp_path, capsys, initial_state, message
    ):
        config = write_config(tmp_path, minimal_doc(initial_state=initial_state))
        out = tmp_path / "s.csv"
        code, manifest = execute(["simulate", "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        assert f"error: ValueError: {message}\n" == capsys.readouterr().err
        assert not out.exists()

    def test_one_parser_serves_every_invocation(self, tmp_path, capsys):
        # The parser is built once per process: an override or a usage error
        # in one invocation leaves the next one's arguments at their defaults.
        config = write_config(tmp_path, minimal_doc(duration=0.1))
        out_a = str(tmp_path / "g.csv")
        out_b = str(tmp_path / "h.csv")
        _, man_a = execute(
            ["simulate", "--config", config, "--output", out_a, "--seed", "9"]
        )
        assert execute(["simulate", "--config", config, "--bogus"])[0] == 2
        _, man_b = execute(["simulate", "--config", config, "--output", out_b])
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        parsed = parse_config((tmp_path / "config.json").read_text())
        assert man_b.config_digest == config_digest(parsed) != man_a.config_digest
        assert cli._build_parser() is cli._build_parser()

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

    def test_driven_oracle_over_its_work_budget_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # The n8-simulate benchmark config, driven and without feedback:
        # its RK4 would take minutes, so it is refused before any trajectory
        # or substep runs.
        def reached(*args, **kwargs):
            raise AssertionError("trajectories or RK4 reached")

        monkeypatch.setattr(trajectory, "_run_block", reached)
        monkeypatch.setattr(trajectory, "_settle", reached)
        doc = minimal_doc(
            n=8,
            dt=1e-3,
            trajectories=4,
            channels=[
                {"qubit": q, "E": SIGMA_MINUS_JSON, "gamma": 0.5} for q in range(8)
            ],
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "driven.csv"
        started = time.monotonic()
        code, manifest = execute(
            ["oracle-compare", "--config", config, "--output", str(out), "--no-feedback"]
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and manifest is None
        assert not out.exists()
        err = capsys.readouterr().err
        assert (
            "the driven oracle's RK4 work is 8.4e+11 (1000 steps x 5 substeps "
            "x 10 x 256^3), over its budget of 1e+10" in err
        )

    def test_oracle_compare_refuses_feedback(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(duration=0.1, trajectories=2))
        out = tmp_path / "i.csv"
        code, manifest = execute(
            ["oracle-compare", "--config", config, "--output", str(out)]
        )
        assert code == 2 and manifest is None
        assert "--no-feedback" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, token",
        [
            ("duration", float("inf"), "Infinity"),
            ("dt", float("-inf"), "-Infinity"),
            ("gamma", float("inf"), "Infinity"),
            ("phi", float("nan"), "NaN"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, field, value, token):
        doc = minimal_doc()
        if field in ("gamma", "phi"):
            doc["channels"][0][field] = value
        else:
            doc[field] = value
        config = write_config(tmp_path, doc)
        out = tmp_path / "nf.csv"
        code, manifest = execute(["simulate", "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        assert f"non-finite number {token} " in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_literal_and_override_exit_2(self, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text(json.dumps(minimal_doc()).replace("1.0", "1e999"))
        assert execute(["simulate", "--config", str(config)])[0] == 2
        assert "non-finite number 1e999" in capsys.readouterr().err
        config = write_config(tmp_path, minimal_doc())
        assert execute(["simulate", "--config", config, "--dt", "inf"])[0] == 2
        assert "dt must be positive and finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field", ["duration", "gamma", "E", "code_override", "initial_state"]
    )
    def test_huge_integer_exits_2(self, tmp_path, capsys, field):
        huge = 10**400  # 401 digits, beyond the largest float
        doc = minimal_doc()
        if field == "duration":
            doc["duration"] = huge
        elif field == "gamma":
            doc["channels"][0]["gamma"] = huge
        elif field == "E":
            doc["channels"][0]["E"] = [[[0, 0], [huge, 0]], [[0, 0], [0, 0]]]
        elif field == "code_override":
            doc["code_override"] = [[[0, 0, huge]]]
        else:
            doc["initial_state"] = [[huge, 0]]
        config = write_config(tmp_path, doc)
        out = tmp_path / "huge.csv"
        code, manifest = execute(["simulate", "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        err = capsys.readouterr().err
        assert "integer 1000000000000000... of 401 digits overflows a float" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_reversed_pair_override_exits_2(self, tmp_path, capsys):
        doc = minimal_doc(
            n=2,
            channels=[],
            code_override=[[[0, 0, 1]] * 2, [[1, 0, 0]] * 2],
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "reversed.csv"
        code, manifest = execute(
            ["simulate", "--config", config, "--output", str(out),
             "--no-feedback", "--no-driving"]
        )
        assert code == 2 and manifest is None
        assert "(X^n, Z^n) pair in that order" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "synthesize", "verify"])
    def test_dense_operators_over_budget_exit_2(self, tmp_path, capsys, command):
        # n=12's dense operators (about 3 GiB) are kept out by the register
        # cap itself: a config error, before any synthesis.
        doc = minimal_doc(
            n=12,
            dt=1e-3,
            channels=[{"qubit": q, "E": SIGMA_MINUS_JSON} for q in range(12)],
        )
        config = write_config(tmp_path, doc)
        out = tmp_path / "big.out"
        started = time.monotonic()
        code, manifest = execute([command, "--config", config, "--output", str(out)])
        assert time.monotonic() - started < 1.0
        assert code == 2 and manifest is None
        assert not out.exists()
        assert "n must be an integer in [1, 11]" in capsys.readouterr().err

    def test_nearly_correctable_override_runs(self, tmp_path, capsys):
        config = write_config(tmp_path, tilted_readme_doc(5e-11))
        out = tmp_path / "verify.json"
        code, _ = execute(["verify", "--config", config, "--output", str(out)])
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        assert all(check["passed"] for check in checks.values())
        for command in ("synthesize", "simulate"):
            out = str(tmp_path / f"{command}.out")
            code, _ = execute([command, "--config", config, "--output", out])
            assert code == 0, capsys.readouterr().err

    def test_tilted_override_exits_on_correctability(self, tmp_path, capsys):
        # verify, synthesize and simulate refuse exactly the overrides that
        # verify's correctability check fails; no tilt makes any command exit
        # 2.  Tilts of 1.1e-10 to 1.4e-10 pass just under the threshold.
        refused = []
        for eps in (1e-13, 5e-12, 5e-11, 1.1e-10, 1.2e-10, 1.3e-10, 1.4e-10, 2e-10):
            config = write_config(tmp_path, tilted_readme_doc(eps), f"{eps}.json")
            out = tmp_path / f"verify{eps}.json"
            code, _ = execute(["verify", "--config", config, "--output", str(out)])
            report = json.loads(out.read_text())
            failed = not report["checks"]["correctability"]["passed"]
            assert code == int(failed), (eps, "verify", capsys.readouterr().out)
            for command in ("synthesize", "simulate"):
                out = str(tmp_path / f"{command}{eps}.out")
                code, _ = execute([command, "--config", config, "--output", out])
                assert code == int(failed), (eps, command, capsys.readouterr().err)
            refused.append(failed)
        assert refused[0] is False and refused[-1] is True

    @pytest.mark.parametrize(
        "dt, duration, message",
        [
            (1e-300, 1e300, "is not a finite step count"),
            (1e-12, 100.0, "100000000000000 time steps would take"),
        ],
    )
    def test_overlong_run_exits_2_before_synthesis(
        self, tmp_path, capsys, monkeypatch, dt, duration, message
    ):
        def reached_synthesis(*args):
            raise AssertionError("synthesis reached")

        monkeypatch.setattr(trajectory, "build_code", reached_synthesis)
        config = write_config(tmp_path, minimal_doc(dt=dt, duration=duration))
        out = tmp_path / "long.csv"
        started = time.monotonic()
        code, manifest = execute(["simulate", "--config", config, "--output", str(out)])
        assert time.monotonic() - started < 1.0
        assert code == 2 and manifest is None
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

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
        # Qubit 1 decays four times faster: the larger residual, named on stderr.
        doc = canonical_config(
            SimConfig(
                n=2,
                channels=(
                    relaxation_channels(2)[0], relaxation_channels(2, kappa=4.0)[1]
                ),
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
        err = capsys.readouterr().err
        assert "CorrectabilityError: channel 'relax1' is not correctable" in err


COMMANDS = ["synthesize", "verify", "simulate", "oracle-compare"]


#: Rate 7367 at rate * dt = 7.4e-4: valid, and its Gram's rounding is ~1e-12.
LARGE_RATE_DOC = minimal_doc(n=2, dt=1e-7, duration=1e-5, trajectories=2, channels=[
    {"qubit": 0, "E": [[[11.9, 0.8], [-61.3, -12.5]], [[13.5, 20.6], [-50.2, -86.9]]]}
])


#: Two relaxation channels at rates near 1e6 per second.
SI_RATE_DOC = minimal_doc(n=2, dt=1e-8, duration=1e-6, channels=[
    {"qubit": q, "E": [[[0, 0], [3000, 0]], [[0, 0], [0, 0]]], "gamma": 900}
    for q in range(2)
])


class TestChannelBackaction:
    @pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
    def test_large_rate_channel_runs(self, tmp_path, capsys, command):
        config = write_config(tmp_path, LARGE_RATE_DOC)
        out = str(tmp_path / "out")
        code, _ = execute([command, "--config", config, "--output", out])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
    def test_si_rate_code_passes_its_own_check(self, tmp_path, capsys, command):
        # Rates near 1e6 per second: the synthesized code's residual is
        # rounding in proportion to the backaction's size, and passes.
        config = write_config(tmp_path, SI_RATE_DOC)
        out = tmp_path / "out"
        code, _ = execute([command, "--config", config, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        if command == "verify":
            checks = json.loads(out.read_text())["checks"]
            assert checks["correctability"]["max_residual"] <= 1e-14

    def test_si_rate_listing_is_real(self, tmp_path, capsys):
        # The driving terms near 1e6 carry rounding of about 1e-10 in the
        # other coefficients, which the listing's cut drops.
        config = write_config(tmp_path, SI_RATE_DOC)
        out = tmp_path / "out"
        code, _ = execute(["synthesize", "--config", config, "--output", str(out)])
        assert code == 0
        terms = json.loads(out.read_text())["hamiltonian"]
        assert terms and all(term["im"] == 0.0 for term in terms)
        assert "j)" not in capsys.readouterr().out

    def test_overflowing_channel_exits_2_naming_it(self, tmp_path, capsys):
        doc = minimal_doc(channels=[
            {"qubit": 0, "E": [[[1e200, 0], [0, 0]], [[0, 0], [0, 0]]]}
        ])
        config = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = execute(["verify", "--config", config,
                               "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channels[0]: ") and "overflows" in err

    def test_each_channel_derives_its_backaction_once(self, monkeypatch):
        calls = []
        backaction = channel_module.Backaction

        def counted(*args, **kwargs):
            calls.append(args or kwargs)
            return backaction(*args, **kwargs)

        monkeypatch.setattr(channel_module, "Backaction", counted)
        cfg = parse_config(json.dumps(minimal_doc(
            n=8, dt=1e-3, duration=1e-2, trajectories=2,
            channels=[{"qubit": q, "E": SIGMA_MINUS_JSON, "gamma": 0.5} for q in range(8)],
        )))
        assert len(calls) == 8  # once per channel, as the config is parsed
        trajectory.prepare(cfg)
        for command in ("verify", "synthesize"):
            code, chunks = cli._COMMANDS[command](cfg)
            assert code == 0 and "".join(chunks)
        assert len(calls) == 8


class TestOutputFile:
    @pytest.fixture
    def no_work(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("work reached")

        for name in ("simulation_code", "run_ensemble", "oracle_distances"):
            monkeypatch.setattr(cli, name, reached)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_existing_output_is_refused_before_any_work(
        self, tmp_path, capsys, no_work, command
    ):
        config = write_config(tmp_path, minimal_doc(feedback=False))
        out = tmp_path / "taken.out"
        out.write_bytes(b"keep\n")
        code, manifest = execute([command, "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        assert "--force" in capsys.readouterr().err
        assert out.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_directory_is_refused_before_any_work(
        self, tmp_path, capsys, no_work, command
    ):
        config = write_config(tmp_path, minimal_doc(feedback=False))
        out = tmp_path / "missing" / "out"
        code, manifest = execute([command, "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        err = capsys.readouterr().err
        assert "does not exist" in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_output_is_refused_before_any_work(
        self, tmp_path, capsys, no_work, command
    ):
        config = write_config(tmp_path, minimal_doc(feedback=False))
        out = tmp_path / "a_directory"
        out.mkdir()
        code, manifest = execute(
            [command, "--config", config, "--output", str(out), "--force"]
        )
        assert code == 2 and manifest is None
        err = capsys.readouterr().err
        assert "is a directory" in err and "Traceback" not in err
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_write_error_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # The write follows the work, so this one runs a small config through;
        # opening the output for writing fails as on a full disk.
        doc = minimal_doc(duration=0.02, trajectories=2, feedback=False)
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out))

        def open_for_reading(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise full
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_for_reading, raising=False)
        code, manifest = execute([command, "--config", config, "--output", str(out)])
        assert code == 2 and manifest is None
        err = capsys.readouterr().err
        assert str(full) in err and "Traceback" not in err


class TestNoDenseGenerators:
    @pytest.mark.parametrize(
        "n, channels",
        [(4, rank3_channels(4)), (3, relaxation_channels(3))],
        ids=["generator-pair", "one-generator"],
    )
    def test_synthesis_and_checks_never_build_a_generator_matrix(
        self, tmp_path, capsys, n, channels
    ):
        cfg = SimConfig(n=n, channels=channels, dt=1e-3, duration=1e-3)
        config = write_config(tmp_path, canonical_config(cfg))
        out = str(tmp_path / "out.json")
        # Without driving the no-jump operator is not invariant: verify exits 1.
        for argv, expected in (
            (["synthesize"], 0), (["verify"], 0), (["verify", "--no-driving"], 1)
        ):
            code, _ = execute([*argv, "--config", config, "--output", out, "--force"])
            assert code == expected, argv
        assert "nojump_invariance: FAIL" in capsys.readouterr().out
        setup = trajectory.prepare(cfg)
        assert setup.corrections is not None
