"""Acceptance gate: one test per headline capability.

Run `python3 -m pytest -v tests/test_acceptance.py` to get one pass/fail
line per criterion; run with -s to also see the measured numbers.  Heavy
tests pass workers=4, which the flows accept for compatibility and ignore:
every batch runs on the calling thread, and test_criterion_8 checks that
such a run gives the same bytes as one without it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from timebin_qkd.analysis import (
    AnalyticChannel,
    conditional_probabilities,
    decoy_bounds,
)
from timebin_qkd.detection import simulate_block
from timebin_qkd.experiment import (
    ExperimentConfig,
    extract_separation,
    plateau_mean,
    run_loss_sweep,
    run_pump_delay_scan,
    run_session,
    run_stability,
)
from timebin_qkd.qubit import BB84_SETTINGS, Basis
from timebin_qkd.source import transmittance
from timebin_qkd.switch import switching_efficiency


def test_criterion_1_secret_key_rate_band_and_runtime():
    # defaults: mu=0.8, 14.55 dB total loss, f=1.22, q=1/2, 80 MHz
    cfg = ExperimentConfig()
    start = time.perf_counter()
    res = run_session(cfg, pulses=10_000_000, workers=4)
    elapsed = time.perf_counter() - start
    r_mbps = res.report.r_bps / 1e6
    print(f"criterion 1: R = {r_mbps:.4f} Mbps (band 0.272..0.408), "
          f"runtime {elapsed:.1f} s (budget 60 s)")
    assert 0.34 * 0.8 <= r_mbps <= 0.34 * 1.2
    assert elapsed < 60.0


def test_criterion_2_stability_qber_band_and_fidelity_floor():
    cfg = ExperimentConfig()
    res = run_stability(cfg, workers=4)
    print(f"criterion 2: aggregate E_mu = {res.qber_aggregate:.5f} (band 0.005..0.011)")
    for (basis, bit), f in sorted(res.mean_fidelities.items()):
        print(f"criterion 2: mean fidelity {basis.name.lower()}{bit} = {f:.5f} (floor 0.99)")
    assert 0.005 < res.qber_aggregate < 0.011
    assert all(f > 0.99 for f in res.mean_fidelities.values())


def test_criterion_3_pump_scan_separation_and_plateau():
    cfg = ExperimentConfig()
    delays = np.arange(-4.0, 12.0 + 1e-9, 0.25)
    scan = run_pump_delay_scan(cfg, delays, pulses_per_point=400_000, workers=4)
    sep = extract_separation(scan)
    plateau = plateau_mean(scan, -1.0, 1.0)
    print(f"criterion 3: separation = {sep:.4f} ps (4.5 +/- 0.1), "
          f"plateau fidelity = {plateau:.5f} (floor 0.99)")
    assert sep == pytest.approx(4.5, abs=0.1)
    assert plateau >= 0.99


def test_criterion_4_switching_efficiency_closed_form():
    rng = np.random.default_rng(41)
    theta = rng.uniform(0.0, math.pi / 2, 100_000)
    dphi = rng.uniform(0.0, 2.0 * math.pi, 100_000)
    ref = np.sin(2.0 * theta) ** 2 * np.sin(dphi / 2.0) ** 2
    got = np.array([switching_efficiency(t, p) for t, p in zip(theta, dphi)])
    worst = float(np.max(np.abs(got - ref)))
    print(f"criterion 4: max |eta - sin^2(2 theta) sin^2(dphi/2)| = {worst:.2e} "
          f"over 1e5 inputs (tol 1e-12)")
    assert worst <= 1e-12
    assert switching_efficiency(math.pi / 4, math.pi) == 1.0


def test_criterion_5_mismatched_basis_statistics_unbiased():
    cfg = ExperimentConfig()
    res = run_session(cfg, pulses=1_000_000, workers=4)
    worst = 0.0
    for alpha in (Basis.PHASE, Basis.TIME):
        beta = Basis.TIME if alpha == Basis.PHASE else Basis.PHASE
        for i in (0, 1):
            p = conditional_probabilities(res.counts, 0, alpha, i, beta)
            col = int(res.counts.counts[0, alpha, i, beta, :].sum())
            sigma = math.sqrt(0.25 / col)
            for bit in (0, 1):
                z = abs(p[bit] - 0.5) / sigma
                worst = max(worst, z)
                assert z < 3.0, (alpha, i, beta, bit, p[bit], z)
    print(f"criterion 5: all 8 cross-basis outcome probabilities within "
          f"{worst:.2f} sigma of 0.5 (limit 3)")


def test_criterion_6_decoy_bounds_sound_and_tight():
    rng = np.random.default_rng(20240)
    violations = 0
    for _ in range(150):
        eta = 10.0 ** rng.uniform(-3, -0.5)
        y0 = 10.0 ** rng.uniform(-8, -4)
        ed = rng.uniform(0.0, 0.05)
        mu = rng.uniform(0.3, 1.0)
        nu = rng.uniform(0.05, 0.9) * mu
        ch = AnalyticChannel(eta=eta, y0=y0, e_detector=ed)
        est = decoy_bounds(
            ch.gain(mu), ch.error_rate(mu), ch.gain(nu), ch.error_rate(nu), mu, nu, y0
        )
        y1_true = ch.yield_n(1)
        e1_true = ch.error_yield_n(1) / y1_true
        if est.y1_lower > y1_true + 1e-9 or est.e1_upper < e1_true - 1e-9:
            violations += 1
    print(f"criterion 6: {violations} soundness violations over 150 channels (limit 0)")
    assert violations == 0

    ch = AnalyticChannel(eta=0.0347, y0=1.6e-7, e_detector=0.008)
    est = decoy_bounds(
        ch.gain(0.8), ch.error_rate(0.8), ch.gain(0.1), ch.error_rate(0.1),
        0.8, 0.1, 1.6e-7,
    )
    ratio = est.y1_lower / ch.yield_n(1)
    print(f"criterion 6: tightness Y1_lower/Y1_true = {ratio:.4f} (floor 0.9)")
    assert ratio >= 0.9


def test_criterion_7_loss_sweep_monotone_and_transmittance_ratio():
    cfg = ExperimentConfig()
    losses = [0.45, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    sweep = run_loss_sweep(cfg, losses, pulses=2_000_000, workers=4)
    fixed_db = cfg.budget.total_db - cfg.budget.channel_db
    totals = [fixed_db + db for db in losses]
    print(f"criterion 7: totals {totals[0]:.2f}..{totals[-1]:.2f} dB, rates "
          + ", ".join(f"{r/1e3:.1f}k" for r in sweep.rates_bps))
    assert np.all(sweep.rates_bps > 0.0)
    assert np.all(np.diff(sweep.rates_bps) < 0.0)
    measured = sweep.rates_bps[0] / sweep.rates_bps[-1]
    predicted = transmittance(totals[0]) / transmittance(totals[-1])
    print(f"criterion 7: rate ratio {measured:.2f} vs transmittance ratio "
          f"{predicted:.2f}, rel dev {abs(measured / predicted - 1):.3f} (limit 0.25)")
    assert abs(measured / predicted - 1.0) <= 0.25


def test_criterion_8_determinism_and_parallel_merge():
    cfg = ExperimentConfig(seed=7)
    serial = run_session(cfg, pulses=2_500_000)
    repeat = run_session(cfg, pulses=2_500_000)
    parallel = run_session(cfg, pulses=2_500_000, workers=4)
    same_bytes = (
        json.dumps(serial.counts.to_dict()) == json.dumps(repeat.counts.to_dict())
        and json.dumps(serial.report.to_dict()) == json.dumps(repeat.report.to_dict())
    )
    print(f"criterion 8: repeat byte-identical {same_bytes}, "
          f"parallel == serial {parallel.counts == serial.counts}")
    assert same_bytes
    assert parallel.counts == serial.counts
    assert parallel.report.to_dict() == serial.report.to_dict()


def test_criterion_9_photon_statistics_and_loss_micro_oracles():
    # the photon statistics as the engine samples them: with darks and dead
    # time off, a signal-only block's gain at each mean is the Poisson
    # click probability 1 - exp(-mean * T) after the 14.55 dB loss; each
    # two-sided z-test runs at alpha / 3 (Bonferroni over the three means),
    # so the criterion fails by chance with probability at most alpha
    cfg = ExperimentConfig()
    det = replace(cfg.detector, dark_count_rate_hz=0.0, dead_time_ns=0.0)
    eta = 0.03507518739525679  # 10^(-14.55/10)
    means, n, alpha = (0.2, 0.5, 0.8), 1_000_000, 1e-4
    limit = NormalDist().inv_cdf(1.0 - alpha / (2 * len(means)))
    zs = []
    for seed, mean in enumerate(means, start=7):
        src = replace(cfg.source, mu=mean, class_probabilities=(1.0, 0.0, 0.0))
        counts = simulate_block(
            BB84_SETTINGS[0], n, src, cfg.budget, cfg.switch, det, cfg.layout,
            np.random.default_rng(seed),
        )
        qref = -math.expm1(-mean * eta)
        zs.append(abs(counts.gain(0) - qref) / math.sqrt(qref * (1 - qref) / n))

    t3 = transmittance(3.0)
    print(f"criterion 9: gain z at means {means} = {', '.join(f'{z:.2f}' for z in zs)} "
          f"(limit {limit:.2f}, alpha {alpha:g}), "
          f"transmittance(3 dB) = {t3:.7f} (0.50119 +/- 1e-5)")
    assert max(zs) < limit
    assert abs(t3 - 0.50119) < 1e-5
