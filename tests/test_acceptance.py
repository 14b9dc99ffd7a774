"""Acceptance gate: one test per shipped criterion, each printing a
single ``criterion N: PASS/FAIL - detail`` line before asserting.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
Criterion 8's step-halving clause is asserted faithfully and fails: with
feedback active the protected infidelity sits at the rounding floor for
every step size (the corrected dynamics has no first-order error term on
the codespace), so the halving ratio compares rounding errors, not a
first-order error; it reads 0.5 (1.110e-16 against 2.220e-16), outside
[1.6, 2.4].
"""

import time

import numpy as np

import jumpqec as jq
from jumpqec.cli import canonical_config, execute

from helpers import (
    cptp_defect,
    dense_correction,
    random_suite,
    rank3_channels,
    relaxation_channels,
)


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {verdict} - {detail}", flush=True)


def test_criterion_1_erasure_code_synthesis():
    started = time.monotonic()
    ok = True
    details = []
    for n in (4, 6, 8):
        code = jq.build_code(rank3_channels(n), n)
        ok &= len(code.generators) == 2
        ok &= np.array_equal(code.generators[0], np.tile([1.0, 0, 0], (n, 1)))
        ok &= np.array_equal(code.generators[1], np.tile([0.0, 0, 1.0], (n, 1)))
        ok &= code.logical_count == n - 2
        details.append(f"n={n}:{code.logical_count}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    report(1, ok, f"logical counts {' '.join(details)}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_single_generator_synthesis():
    started = time.monotonic()
    ok = True
    details = []
    for n in (2, 3, 5):
        code = jq.build_code(relaxation_channels(n), n)
        ok &= len(code.generators) == 1
        ok &= code.logical_count == n - 1
        details.append(f"n={n}:{code.logical_count}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report(2, ok, f"logical counts {' '.join(details)}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_random_correctability():
    started = time.monotonic()
    worst = 0.0
    for n, channels in random_suite(seed=100, count=100):
        code = jq.build_code(channels, n)
        result = jq.verify_correctability(code, channels)
        worst = max(worst, result.max_residual)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    report(3, ok, f"worst residual {worst:.3e} over 100 sets, {elapsed:.2f}s")
    assert ok


def test_criterion_4_nojump_codespace_invariance():
    started = time.monotonic()
    dt = 1e-3
    worst_res = 0.0
    worst_scalar = 0.0
    for n, channels in random_suite(seed=100, count=100):
        code = jq.build_code(channels, n)
        driving = jq.build_control_plan(channels, code).driving_terms
        ks = jq.kraus_set(channels, code, dt, driving)
        result = jq.nojump_invariance_check(ks)
        total = sum(ch.backaction.rate for ch in channels)
        worst_res = max(worst_res, result.residual)
        worst_scalar = max(worst_scalar, abs(result.a - (1.0 - total * dt / 2.0)))
    elapsed = time.monotonic() - started
    ok = worst_res <= 1e-12 and worst_scalar <= 1e-12 and elapsed < 30.0
    report(
        4,
        ok,
        f"worst residual {worst_res:.3e}, scalar gap {worst_scalar:.3e}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_corrected_jump_fidelity():
    started = time.monotonic()
    worst = 0.0
    for n, channels in random_suite(seed=100, count=100):
        code = jq.build_code(channels, n)
        plan = jq.build_control_plan(channels, code)
        for ch, corr in zip(channels, plan.corrections):
            if ch.backaction.rate <= jq.control.NULL_CHANNEL_ATOL:
                continue
            jump = jq.tensor_embed(jq.effective_jump_operator(ch), ch.qubit, n)
            matrix = dense_correction(corr)
            for v in code.codespace:
                image = jump @ v
                overlap = (abs(np.vdot(v, matrix @ image)) / np.linalg.norm(image)) ** 2
                worst = max(worst, abs(1.0 - overlap))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    report(5, ok, f"worst fidelity gap {worst:.3e}, {elapsed:.2f}s")
    assert ok


def test_criterion_6_deviation_quadratic_in_dt():
    started = time.monotonic()
    ratios = []
    for n, channels in random_suite(seed=200, count=20):
        code = jq.build_code(channels, n)
        driving = jq.build_control_plan(channels, code).driving_terms
        coarse = cptp_defect(jq.kraus_set(channels, code, 1e-2, driving))
        fine = cptp_defect(jq.kraus_set(channels, code, 5e-3, driving))
        ratios.append(coarse / fine)
    elapsed = time.monotonic() - started
    lo, hi = min(ratios), max(ratios)
    ok = lo >= 3.8 and hi <= 4.2 and elapsed < 10.0
    report(6, ok, f"halving ratios in [{lo:.3f}, {hi:.3f}], {elapsed:.2f}s")
    assert ok


def test_criterion_7_unraveling_matches_master_equation():
    started = time.monotonic()
    worst = {}
    for gamma in (0.0, 0.5):
        cfg = jq.SimConfig(
            n=2,
            channels=relaxation_channels(2, gamma=gamma),
            dt=2e-3,
            duration=3.0,
            seed=7,
            trajectories=1000,
            feedback_enabled=False,
            driving_enabled=False,
        )
        result = jq.run_ensemble(cfg)
        times, oracle = jq.master_equation_oracle(cfg)
        assert np.array_equal(result.density_times, times)
        picks = np.linspace(0, times.shape[0] - 1, 10).round().astype(int)
        worst[gamma] = max(
            jq.trace_distance(result.mean_density[i], oracle[i]) for i in picks
        )
    elapsed = time.monotonic() - started
    ok = all(v <= 0.05 for v in worst.values()) and elapsed < 120.0
    report(
        7,
        ok,
        f"max trace distance offset0={worst[0.0]:.4f} offset0.5={worst[0.5]:.4f} "
        f"at 10 times, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_protection_and_step_halving():
    started = time.monotonic()
    channels = rank3_channels(4)

    def final_fidelity(dt, protected):
        cfg = jq.SimConfig(
            n=4,
            channels=channels,
            dt=dt,
            duration=5.0,
            seed=2026,
            trajectories=200,
            feedback_enabled=protected,
            driving_enabled=protected,
        )
        res = jq.run_ensemble(cfg, collect_density=False)
        return res.record.mean_fidelity[-1]

    protected = final_fidelity(1e-3, True)
    bare = final_fidelity(1e-3, False)
    fine = final_fidelity(5e-4, True)
    elapsed = time.monotonic() - started
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 - protected) / (1.0 - fine)
    ratio_ok = 1.6 <= ratio <= 2.4
    ok = protected >= 0.99 and bare <= 0.9 and ratio_ok and elapsed < 300.0
    report(
        8,
        ok,
        f"protected {protected:.6f}, bare {bare:.6f}, halving ratio {ratio} "
        f"(infidelities {1.0 - protected:.3e} and {1.0 - fine:.3e}: correction "
        f"is exact on the codespace, leaving no first-order error to halve), "
        f"{elapsed:.2f}s",
    )
    assert protected >= 0.99
    assert bare <= 0.9
    assert elapsed < 300.0
    assert ratio_ok, (
        f"step-halving ratio {ratio} outside [1.6, 2.4]: protected infidelity "
        "is at the rounding floor at both step sizes"
    )


def test_criterion_9_simulate_reproducible(tmp_path):
    started = time.monotonic()
    import json

    doc = canonical_config(
        jq.SimConfig(
            n=2,
            channels=relaxation_channels(2, gamma=0.3),
            dt=1e-3,
            duration=2.0,
            seed=11,
            trajectories=50,
        )
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a, _ = execute(
        ["simulate", "--config", str(config), "--output", str(out_a)]
    )
    code_b, _ = execute(
        ["simulate", "--config", str(config), "--output", str(out_b)]
    )
    elapsed = time.monotonic() - started
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical and elapsed < 60.0
    report(9, ok, f"identical CSV bytes: {identical}, {elapsed:.2f}s")
    assert ok
