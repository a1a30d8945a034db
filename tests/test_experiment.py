from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd import experiment
from timebin_qkd.detection import accumulate
from timebin_qkd.errors import ConfigError, InvalidInputError
from timebin_qkd.experiment import (
    BLOCK_PULSES,
    COUNTS_SCHEMA,
    SCAN_SCHEMA,
    STABILITY_SCHEMA,
    SWEEP_SCHEMA,
    ExperimentConfig,
    PumpScanResult,
    _blocks,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    extract_separation,
    load_config,
    plateau_mean,
    read_counts_json,
    report_csv,
    run_loss_sweep,
    run_pump_delay_scan,
    run_session,
    run_stability,
    scan_csv,
    scan_payload,
    stability_csv,
    stability_payload,
    sweep_csv,
    sweep_payload,
    write_counts_json,
)
from timebin_qkd.qubit import Basis


@pytest.fixture(scope="module")
def coarse_scan():
    cfg = ExperimentConfig(seed=5)
    delays = np.arange(-4.0, 12.0 + 1e-9, 1.0)
    return run_pump_delay_scan(cfg, delays, pulses_per_point=20_000)


def test_config_dict_round_trip():
    cfg = ExperimentConfig(seed=7, pulses_per_setting=123)
    payload = config_to_dict(cfg)
    assert config_from_dict(payload) == cfg
    # survives a JSON round trip too (tuples come back as lists)
    assert config_from_dict(json.loads(json.dumps(payload))) == cfg

    payload["source"]["mu"] = 0.7
    cfg2 = config_from_dict(payload)
    assert cfg2.source.mu == 0.7
    assert cfg2.detector == cfg.detector


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict({"sources": {}})
    with pytest.raises(ConfigError, match="detector"):
        config_from_dict({"detector": {"effciency_db": 1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"detector": 3})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


def test_config_rejects_inconsistent_detector_loss():
    payload = {"budget": {"detector_db": 1.0}}
    with pytest.raises(ConfigError, match="detector"):
        config_from_dict(payload)
    # consistent when both sides move together
    payload["detector"] = {"efficiency_db": 1.0}
    cfg = config_from_dict(payload)
    assert cfg.detector.efficiency_db == 1.0


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(pulses_per_setting=0)
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 2.5})
    with pytest.raises(ConfigError):
        config_from_dict({"source": {"mu": -0.1}})


def test_apply_overrides():
    base = {"source": {"mu": 0.8}}
    out = apply_overrides(base, ["source.mu=0.7", "detector.double_click_policy=discard", "seed=11"])
    assert out["source"]["mu"] == 0.7
    assert out["detector"]["double_click_policy"] == "discard"
    assert out["seed"] == 11
    assert base == {"source": {"mu": 0.8}}

    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["a..b=1"])
    with pytest.raises(ConfigError):
        apply_overrides({"seed": 3}, ["seed.sub=1"])


def test_load_config(tmp_path):
    cfg = ExperimentConfig(seed=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_block_decomposition():
    assert _blocks(1) == [(0, 0, 1)]
    assert _blocks(BLOCK_PULSES) == [(0, 0, BLOCK_PULSES)]
    assert _blocks(2_500_000) == [
        (0, 0, 1_000_000),
        (1, 1_000_000, 1_000_000),
        (2, 2_000_000, 500_000),
    ]


def test_run_session_is_reproducible():
    cfg = ExperimentConfig(seed=9)
    r1 = run_session(cfg, pulses=30_000)
    r2 = run_session(cfg, pulses=30_000)
    assert r1.counts == r2.counts
    assert r1.report.r_bps == r2.report.r_bps

    r3 = run_session(cfg, pulses=30_000, workers=3)
    assert r3.counts == r1.counts

    other = run_session(ExperimentConfig(seed=10), pulses=30_000)
    assert other.counts != r1.counts

    with pytest.raises(InvalidInputError):
        run_session(cfg, pulses=0)


def test_run_session_tags_rebuild_the_counts():
    # with no timing jitter every tag stays in its window, so offline
    # accumulation of the tag record reproduces the online counts exactly
    cfg = ExperimentConfig(seed=9)
    cfg = replace(cfg, detector=replace(cfg.detector, jitter_sigma_ps=0.0))
    res = run_session(cfg, pulses=5_000, collect_tags=True)
    assert len(res.ledger) == 4 * 5_000
    assert res.ledger.start_index == 0
    order = [(t.pulse_index, t.timestamp_ps) for t in res.tags]
    assert order == sorted(order)
    rebuilt = accumulate(res.tags, cfg.layout, res.ledger)
    assert rebuilt == res.counts


@pytest.mark.parametrize("dark_hz", [100.0, 1e7])
def test_tags_do_not_change_the_counts(dark_hz):
    # tag and ledger draws come after every draw the counts use; the high
    # dark rate adds doubles, whose policy coins the counts do depend on
    cfg = ExperimentConfig(seed=13)
    cfg = replace(cfg, detector=replace(cfg.detector, dark_count_rate_hz=dark_hz))
    plain = run_session(cfg, pulses=200_000)
    for workers in (None, 2):
        tagged = run_session(cfg, pulses=200_000, collect_tags=True, workers=workers)
        assert tagged.counts == plain.counts


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every pool the flows create, on a 3-CPU affinity mask.

    The stand-in pool runs its map serially, so no thread starts.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return sizes


def test_one_pool_per_flow_capped_at_the_usable_cpus(pool_sizes):
    cfg = ExperimentConfig(seed=4)
    delays = [0.0, 2.0, 4.0, 6.0]
    scan = run_pump_delay_scan(cfg, delays, pulses_per_point=2_000, workers=100_000)
    assert pool_sizes == [3]
    serial = run_pump_delay_scan(cfg, delays, pulses_per_point=2_000, workers=1)
    assert pool_sizes == [3]
    assert scan.fidelity_t0.tolist() == serial.fidelity_t0.tolist()
    assert scan.fidelity_t1.tolist() == serial.fidelity_t1.tolist()

    run_session(cfg, pulses=2_000, workers=2)
    run_loss_sweep(cfg, [1.0, 2.0], pulses=2_000, workers=8)
    run_stability(cfg, hours=1, pulses_per_sample=2_000, workers=8)
    run_pump_delay_scan(cfg, [0.0], pulses_per_point=2_000, workers=8)  # two blocks
    run_session(cfg, pulses=2_000)
    assert pool_sizes == [3, 2, 3, 3, 2]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(InvalidInputError):
        run_session(ExperimentConfig(), pulses=1_000, workers=workers)


def test_single_point_sweep_matches_session():
    cfg = ExperimentConfig(seed=12)
    sweep = run_loss_sweep(cfg, [4.0], pulses=25_000)
    point = replace(cfg, budget=replace(cfg.budget, channel_db=4.0))
    direct = run_session(point, pulses=25_000)
    assert sweep.reports[0].to_dict() == direct.report.to_dict()


def test_sweep_sorts_and_loses_rate_with_loss():
    cfg = ExperimentConfig(seed=12)
    sweep = run_loss_sweep(cfg, [7.0, 1.0, 4.0], pulses=60_000)
    assert sweep.channel_db.tolist() == [1.0, 4.0, 7.0]
    assert len(sweep.reports) == 3
    assert sweep.rates_bps[0] > sweep.rates_bps[-1] > 0.0

    with pytest.raises(InvalidInputError):
        run_loss_sweep(cfg, [])
    with pytest.raises(InvalidInputError):
        run_loss_sweep(cfg, [-1.0])


def test_pump_scan_locates_both_slots(coarse_scan):
    scan = coarse_scan
    sep = extract_separation(scan)
    assert sep == pytest.approx(4.5, abs=0.4)
    assert plateau_mean(scan, -1.0, 1.0) > 0.97
    # late slot reads out wrongly only while the pump overlaps it
    dip = scan.delays_ps[int(np.argmin(scan.fidelity_t1))]
    assert 1.5 <= dip <= 7.5
    # delays far from either slot reuse identical randomness, so the
    # readout is sample-for-sample unchanged there
    assert scan.fidelity_t1[0] == pytest.approx(scan.fidelity_t1[1], abs=1e-9)

    with pytest.raises(InvalidInputError):
        plateau_mean(scan, 100.0, 101.0)


def test_pump_scan_validation():
    cfg = ExperimentConfig(seed=5)
    with pytest.raises(InvalidInputError):
        run_pump_delay_scan(cfg, [])
    with pytest.raises(InvalidInputError):
        run_pump_delay_scan(cfg, [np.nan])
    with pytest.raises(InvalidInputError):
        run_pump_delay_scan(cfg, [0.0], pulses_per_point=0)


def test_extract_separation_needs_both_feature_edges():
    # a scan that only catches one edge of a feature cannot be centered
    delays = np.array([2.0, 3.0, 4.0])
    scan = PumpScanResult(delays, np.array([0.99, 0.75, 0.55]), np.ones(3))
    with pytest.raises(InvalidInputError, match="crossings"):
        extract_separation(scan)


def test_run_stability_small_grid():
    cfg = ExperimentConfig(seed=6)
    res = run_stability(cfg, hours=2.0, samples_per_hour=1, pulses_per_sample=40_000)
    assert res.times_h.tolist() == [0.0, 1.0, 2.0]
    keys = {(Basis.PHASE, 0), (Basis.PHASE, 1), (Basis.TIME, 0), (Basis.TIME, 1)}
    assert set(res.fidelity_series) == keys
    assert set(res.mean_fidelities) == keys
    for series in res.fidelity_series.values():
        assert series.shape == (3,)
        assert np.all((series >= 0.0) & (series <= 1.0))
    assert res.qber_series.shape == (3,)
    assert int(res.counts.pulses_sent.sum()) == 3 * 4 * 40_000
    assert 0.0 < res.qber_aggregate < 0.05

    again = run_stability(cfg, hours=2.0, samples_per_hour=1, pulses_per_sample=40_000)
    assert again.counts == res.counts
    assert again.report.r_bps == res.report.r_bps

    with pytest.raises(InvalidInputError):
        run_stability(cfg, hours=0.0)
    with pytest.raises(InvalidInputError):
        run_stability(cfg, samples_per_hour=0)
    with pytest.raises(InvalidInputError):
        run_stability(cfg, pulses_per_sample=0)


def test_counts_json_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=4)
    res = run_session(cfg, pulses=10_000)
    path = tmp_path / "counts.json"
    write_counts_json(path, res.counts, cfg.source)
    counts, source = read_counts_json(path)
    assert counts == res.counts
    assert source.mu == cfg.source.mu
    assert source.nu == cfg.source.nu
    assert source.rep_rate_hz == cfg.source.rep_rate_hz

    payload = json.loads(path.read_text())
    payload["schema"] = "something-else/9"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match=COUNTS_SCHEMA):
        read_counts_json(wrong)

    payload = json.loads(path.read_text())
    del payload["mu"]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match="missing"):
        read_counts_json(missing)

    bad = tmp_path / "bad.json"
    bad.write_text("]")
    with pytest.raises(InvalidInputError, match="JSON"):
        read_counts_json(bad)


def test_scan_payload_and_csv(coarse_scan):
    payload = scan_payload(coarse_scan)
    assert payload["schema"] == SCAN_SCHEMA
    assert payload["separation_ps"] == pytest.approx(4.5, abs=0.4)
    assert len(payload["pump_delay_ps"]) == len(coarse_scan.delays_ps)

    # a scan without both edges reports no separation instead of failing
    partial = PumpScanResult(
        np.array([2.0, 3.0, 4.0]), np.array([0.99, 0.75, 0.55]), np.ones(3)
    )
    assert scan_payload(partial)["separation_ps"] is None

    lines = scan_csv(coarse_scan).strip().split("\n")
    assert lines[0] == "pump_delay_ps,fidelity_t0,fidelity_t1"
    assert len(lines) == 1 + len(coarse_scan.delays_ps)
    first = lines[1].split(",")
    assert float(first[0]) == coarse_scan.delays_ps[0]
    assert float(first[1]) == coarse_scan.fidelity_t0[0]


def test_sweep_and_stability_payloads():
    cfg = ExperimentConfig(seed=8)
    sweep = run_loss_sweep(cfg, [2.0, 6.0], pulses=20_000)
    payload = sweep_payload(sweep)
    assert payload["schema"] == SWEEP_SCHEMA
    assert payload["channel_db"] == [2.0, 6.0]
    assert len(payload["reports"]) == 2
    assert payload["R_bps"][0] == sweep.reports[0].to_dict()["R_bps"]

    lines = sweep_csv(sweep).strip().split("\n")
    assert lines[0] == "channel_db,R_bps,Q_mu,E_mu"
    assert len(lines) == 3

    stab = run_stability(cfg, hours=1.0, samples_per_hour=1, pulses_per_sample=20_000)
    spay = stability_payload(stab)
    assert spay["schema"] == STABILITY_SCHEMA
    assert spay["times_h"] == [0.0, 1.0]
    for key in ("fidelity_phase0", "fidelity_phase1", "fidelity_time0", "fidelity_time1"):
        assert len(spay[key]) == 2
    assert set(spay["mean_fidelities"]) == {"phase0", "phase1", "time0", "time1"}
    assert spay["E_mu"] == stab.qber_aggregate

    lines = stability_csv(stab).strip().split("\n")
    assert lines[0] == (
        "time_h,fidelity_phase0,fidelity_phase1,fidelity_time0,fidelity_time1,qber"
    )
    assert len(lines) == 3

    rlines = report_csv(stab.report).strip().split("\n")
    assert rlines[0] == "quantity,value"
    assert any(line.startswith("R_bps,") for line in rlines)
