import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import Expected, check_output
from workloads import WORKLOADS, config_doc

BENCH = Path(__file__).resolve().parents[1]

SIM = Expected(header=checks.SIMULATE_HEADER, rows=4, end_time=0.003,
               jump_mean=100.0)
ORACLE = Expected(header=checks.ORACLE_HEADER, rows=3, end_time=0.002,
                  trajectories=100)


def simulate_csv(final_fidelity=1.0, jumps=100, rows=4):
    lines = ["time,mean_fidelity,std_fidelity,cumulative_jumps"]
    for i in range(rows):
        fid = final_fidelity if i == rows - 1 else 1.0
        lines.append(f"{i * 0.001:.17g},{fid:.17g},0,{jumps if i == rows - 1 else 0}")
    return "\n".join(lines) + "\n"


def oracle_csv(worst=0.1):
    return f"time,trace_distance\n0,0\n0.001,{worst!r}\n0.002,0.05\n"


def test_good_outputs_pass():
    assert check_output(0, simulate_csv(), SIM) == []
    assert check_output(0, oracle_csv(), ORACLE) == []
    text = simulate_csv()
    assert check_output(0, text, SIM, reference=text) == []


@pytest.mark.parametrize(
    "code, text, expected, reference",
    [
        (1, simulate_csv(), SIM, None),
        (0, None, SIM, None),
        (0, simulate_csv(rows=3), SIM, None),
        (0, simulate_csv().replace("mean_fidelity", "fidelity"), SIM, None),
        (0, simulate_csv(final_fidelity=1.0 - 1e-8), SIM, None),
        (0, simulate_csv(jumps=151), SIM, None),
        (0, simulate_csv(jumps=49), SIM, None),
        (0, oracle_csv(worst=0.26), ORACLE, None),
        (0, oracle_csv(), Expected(header=checks.ORACLE_HEADER, rows=3,
                                   end_time=0.003, trajectories=100), None),
        (0, simulate_csv(jumps=101), SIM, simulate_csv()),
        (0, "time,mean_fidelity,std_fidelity,cumulative_jumps\n0,x,0,0\n", SIM, None),
    ],
    ids=["exit-code", "no-output", "missing-row", "header", "fidelity",
         "jumps-high", "jumps-low", "trace-distance", "end-time",
         "repeat-differs", "unparsable"],
)
def test_doctored_outputs_fail(code, text, expected, reference):
    assert check_output(code, text, expected, reference)


def test_jump_band_is_five_sigma():
    assert check_output(0, simulate_csv(jumps=150), SIM) == []
    assert check_output(0, simulate_csv(jumps=50), SIM) == []


def test_unprotected_simulate_skips_fidelity_and_jumps():
    bare = Expected(header=checks.SIMULATE_HEADER, rows=4, end_time=0.003)
    assert check_output(0, simulate_csv(final_fidelity=0.5, jumps=7), bare) == []


def test_rank3_config_mirrors_the_test_helper():
    from jumpqec.cli import parse_config

    spec = importlib.util.spec_from_file_location(
        "jumpqec_test_helpers", BENCH.parent / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    cfg = parse_config(json.dumps(config_doc(WORKLOADS["rank3-oracle"], 5)))
    reference = helpers.rank3_channels(4)
    assert [ch.label for ch in cfg.channels] == [ch.label for ch in reference]
    for got, want in zip(cfg.channels, reference):
        assert got.qubit == want.qubit
        np.testing.assert_allclose(got.operator, want.operator, atol=1e-15)
    assert cfg.seed == 5 and not cfg.feedback_enabled and not cfg.driving_enabled


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py"):
        (bench / name).write_text((BENCH / name).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme-simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_runner():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for entry in doc["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
