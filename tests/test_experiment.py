from __future__ import annotations

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd import detection, experiment
from timebin_qkd.detection import DetectorModel, accumulate
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

from sinks import tagged_session


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
    for scalar in ("seed", "pulses_per_setting"):
        with pytest.raises(ConfigError, match=scalar):
            config_from_dict({scalar: True})
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=True)


def test_config_values_keep_their_field_types():
    cfg = config_from_dict({"source": {"mu": 1}, "drift": {"seed": 5}})
    assert type(cfg.source.mu) is float and cfg.source.mu == 1.0
    assert cfg.drift.seed == 5
    for section, key, value in [
        ("source", "mu", "0.8"), ("source", "mu", None), ("source", "mu", True),
        ("source", "mu", [0.8]), ("source", "mu", 10**400),
        ("source", "class_probabilities", ["0.7", 0.2, 0.1]),
        ("source", "class_probabilities", 0.7),
        ("layout", "centers_ps", [0.0, 1e4, 2e4, False]),
        ("detector", "stray_time_policy", 1),
        ("drift", "seed", 1.5), ("drift", "seed", True), ("drift", "seed", "1"),
        ("drift", "seed", -1),
    ]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({section: {key: value}})


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
    res, tags, ledger = tagged_session(cfg, pulses=5_000)
    assert len(ledger) == 4 * 5_000
    assert ledger.start_index == 0
    order = np.lexsort((tags.timestamp_ps, tags.pulse_index))
    assert np.array_equal(order, np.arange(len(tags)))
    rebuilt = accumulate(tags, cfg.layout, ledger)
    assert rebuilt == res.counts


@pytest.mark.parametrize("dark_hz", [100.0, 1e7])
def test_tags_do_not_change_the_counts(dark_hz):
    # tag and ledger draws come after every draw the counts use; the high
    # dark rate adds doubles, whose policy coins the counts do depend on
    cfg = ExperimentConfig(seed=13)
    cfg = replace(cfg, detector=replace(cfg.detector, dark_count_rate_hz=dark_hz))
    plain = run_session(cfg, pulses=200_000)
    for workers in (None, 2):
        tagged, _, _ = tagged_session(cfg, pulses=200_000, workers=workers)
        assert tagged.counts == plain.counts


class _PoolLog(list):
    """max_workers of every pool created, plus each pool's peak in flight."""

    def __init__(self):
        super().__init__()
        self.in_flight = []


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every pool the flows create, on a 3-CPU affinity mask.

    The stand-in pool runs each submitted block at once, so no thread
    starts.  `pool_sizes.in_flight` holds, per pool, the most blocks that
    were ever submitted and not yet taken by the engine's reduce.
    """
    sizes = _PoolLog()

    class Done:
        def __init__(self, pool, value):
            self.pool, self.value = pool, value

        def result(self):
            self.pool.outstanding -= 1
            return self.value

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)
            sizes.in_flight.append(0)
            self.outstanding = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.outstanding += 1
            sizes.in_flight[-1] = max(sizes.in_flight[-1], self.outstanding)
            return Done(self, fn(*args))

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return sizes


def test_one_pool_per_flow_capped_at_the_usable_cpus(pool_sizes, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
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
    run_pump_delay_scan(cfg, [0.0], pulses_per_point=1_000, workers=8)  # two blocks
    run_session(cfg, pulses=2_000)
    assert pool_sizes == [3, 2, 3, 3, 2]


def test_at_most_two_blocks_per_thread_are_in_flight(pool_sizes, monkeypatch):
    # 40 blocks on 2 threads, then 24 on 3: the window fills, never overflows
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    cfg = ExperimentConfig(seed=4)
    run_session(cfg, pulses=10_000, workers=2)
    run_pump_delay_scan(cfg, [0.0, 2.0, 4.0, 6.0], pulses_per_point=3_000, workers=8)
    assert pool_sizes == [2, 3]
    assert pool_sizes.in_flight == [4, 6]


def test_short_blocks_run_on_the_calling_thread(pool_sizes, monkeypatch):
    # every block below BLOCK_PULSES: no pool, whatever `workers` allows
    cfg = ExperimentConfig(seed=4)
    run_pump_delay_scan(cfg, [0.0, 2.0, 4.0], pulses_per_point=2_000, workers=8)
    run_session(cfg, pulses=2_000, workers=8)
    run_loss_sweep(cfg, [1.0, 2.0], pulses=2_000, workers=8)
    run_stability(cfg, hours=1, pulses_per_sample=2_000, workers=8)
    assert pool_sizes == []

    # only the full-size blocks count towards the pool: 1,500 pulses are
    # one full block and one short block per setting
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    run_session(cfg, pulses=1_500, workers=8)
    run_pump_delay_scan(cfg, [0.0], pulses_per_point=1_500, workers=8)
    assert pool_sizes == [3, 2]


def test_every_flow_gives_the_same_result_on_real_threads(monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 10_000)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    block_threads = set()
    original = experiment.simulate_blocks

    def recording_block(*args, **kwargs):
        block_threads.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_blocks", recording_block)
    cfg = ExperimentConfig(seed=21)

    def flows(workers):
        session = run_session(cfg, pulses=20_000, workers=workers)
        tagged = tagged_session(cfg, pulses=20_000, workers=workers)
        sweep = run_loss_sweep(cfg, [1.0, 6.0], pulses=20_000, workers=workers)
        scan = run_pump_delay_scan(cfg, [0.0, 4.5], pulses_per_point=20_000, workers=workers)
        stability = run_stability(
            cfg, hours=1, samples_per_hour=1, pulses_per_sample=20_000, workers=workers
        )
        return session, tagged, sweep, scan, stability

    serial = flows(None)
    assert block_threads == {threading.get_ident()}
    block_threads.clear()
    threaded = flows(2)
    assert threading.get_ident() not in block_threads

    (s1, (t1, tags1, ledger1), w1, p1, b1) = serial
    (s2, (t2, tags2, ledger2), w2, p2, b2) = threaded
    assert s1.counts == s2.counts and s1.report == s2.report
    assert t1.counts == s1.counts and t2.counts == s1.counts
    for name in ("pulse_index", "detector_id", "timestamp_ps"):
        assert np.array_equal(getattr(tags1, name), getattr(tags2, name))
    for name in ("class_idx", "alpha", "bit"):
        assert np.array_equal(getattr(ledger1, name), getattr(ledger2, name))
    assert w1.rates_bps.tolist() == w2.rates_bps.tolist() and w1.reports == w2.reports
    np.testing.assert_array_equal(p1.fidelity_t0, p2.fidelity_t0)
    np.testing.assert_array_equal(p1.fidelity_t1, p2.fidelity_t1)
    assert b1.counts == b2.counts and b1.report == b2.report
    np.testing.assert_array_equal(b1.qber_series, b2.qber_series)


@pytest.fixture
def batch_sizes(monkeypatch):
    """The pulse counts of the blocks of every batch the engine simulates."""
    sizes = []
    original = experiment.simulate_blocks

    def recording(blocks, *args, **kwargs):
        sizes.append([block.pulses for block in blocks])
        return original(blocks, *args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_blocks", recording)
    return sizes


def test_short_blocks_share_a_batch_up_to_the_block_size(batch_sizes, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    cfg = ExperimentConfig(seed=4)
    # four trains of 250 pulses fill one batch; of 300, the fourth starts another
    run_session(cfg, pulses=250)
    run_session(cfg, pulses=300)
    # a full-size block is a batch of its own; 2,500 pulses are 1,000 + 1,000 + 500
    run_session(cfg, pulses=2_500)
    # 40 delays x 2 settings of 20 pulses: at most BATCH_BLOCKS blocks a batch
    run_pump_delay_scan(cfg, np.arange(40.0), pulses_per_point=20)
    assert batch_sizes == [
        [250] * 4,
        [300] * 3, [300],
        *[[1_000], [1_000], [500]] * 4,
        *[[20] * experiment.BATCH_BLOCKS] * 5,
    ]


def test_flows_do_not_depend_on_the_batches(monkeypatch):
    # 2,500 pulses per train are two full blocks and a short one
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    cfg = ExperimentConfig(seed=23, detector=DetectorModel(dark_count_rate_hz=1e7))

    def flows():
        return (
            tagged_session(cfg, pulses=2_500),
            tagged_session(cfg, pulses=300),
            run_loss_sweep(cfg, [1.0, 6.0, 9.0], pulses=300),
            run_pump_delay_scan(cfg, np.arange(-4.0, 12.0, 0.5), pulses_per_point=100),
            run_stability(cfg, hours=1, samples_per_hour=4, pulses_per_sample=200),
        )

    batched = flows()
    monkeypatch.setattr(experiment, "BATCH_BLOCKS", 1)
    lone = flows()
    for (a, a_tags, a_ledger), (b, b_tags, b_ledger) in zip(batched[:2], lone[:2]):
        assert a.counts == b.counts and a.report == b.report
        for name in ("pulse_index", "detector_id", "timestamp_ps"):
            assert np.array_equal(getattr(a_tags, name), getattr(b_tags, name))
        for name in ("class_idx", "alpha", "bit"):
            assert np.array_equal(getattr(a_ledger, name), getattr(b_ledger, name))
    assert batched[2].reports == lone[2].reports
    np.testing.assert_array_equal(batched[3].fidelity_t0, lone[3].fidelity_t0)
    np.testing.assert_array_equal(batched[3].fidelity_t1, lone[3].fidelity_t1)
    assert batched[4].counts == lone[4].counts
    np.testing.assert_array_equal(batched[4].qber_series, lone[4].qber_series)


def test_each_block_reaches_the_sink_before_the_next_block_draws_its_tags(monkeypatch):
    events = []
    original = detection._tags_and_ledger

    def tag_stage(block, *args):
        events.append(("tags", block.start_index))
        return original(block, *args)

    monkeypatch.setattr(detection, "_tags_and_ledger", tag_stage)
    # four trains of 2,000 pulses are one batch
    run_session(ExperimentConfig(seed=2), pulses=2_000,
                sink=lambda tags, ledger: events.append(("sink", ledger.start_index)))
    assert events == [(what, s * 2_000) for s in range(4) for what in ("tags", "sink")]


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


@pytest.mark.parametrize(
    "hours, per_hour, samples",
    [
        (1e308, 10, None),  # the product is infinite
        (1e300, 10, None),
        (100_000, 1, None),
        (99_999.5, 1, None),  # rounds half to even: 100,001 samples
        (99_999, 1, experiment.MAX_VALUES),
    ],
)
def test_run_stability_refuses_a_grid_over_the_cap(hours, per_hour, samples, monkeypatch):
    # the stand-in engine never simulates; before the cap moved here, the
    # grids over it raised OverflowError or ValueError before allocating
    reached = []

    def stand_in(config, groups, n_jobs, *args, **kwargs):
        reached.append(n_jobs // 4)
        raise RuntimeError("stand-in")

    monkeypatch.setattr(experiment, "_run_jobs", stand_in)
    cfg = ExperimentConfig()
    if samples is None:
        with pytest.raises(InvalidInputError, match=str(experiment.MAX_VALUES)):
            run_stability(cfg, hours=hours, samples_per_hour=per_hour)
        assert reached == []
    else:
        with pytest.raises(RuntimeError, match="stand-in"):
            run_stability(cfg, hours=hours, samples_per_hour=per_hour)
        assert reached == [samples]


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


def test_session_without_signal_events_has_no_matrix():
    cfg = ExperimentConfig(seed=5)
    cfg = replace(cfg, budget=replace(cfg.budget, channel_db=40.0))
    res = run_session(cfg, pulses=2000)
    assert res.matrix is None
    assert res.report.r_bps == 0.0
    assert "no-signal-events" in res.report.flags
    assert run_session(ExperimentConfig(seed=5), pulses=2000).matrix is not None


def test_separation_and_plateau_leave_out_points_without_events(coarse_scan):
    # points without events (NaN) between the measured ones change nothing
    n = len(coarse_scan.delays_ps)
    delays = np.empty(2 * n)
    delays[0::2], delays[1::2] = coarse_scan.delays_ps, coarse_scan.delays_ps + 0.5
    curves = []
    for measured in (coarse_scan.fidelity_t0, coarse_scan.fidelity_t1):
        curve = np.full(2 * n, np.nan)
        curve[0::2] = measured
        curves.append(curve)
    gappy = PumpScanResult(delays, *curves)
    assert extract_separation(gappy) == extract_separation(coarse_scan)
    assert plateau_mean(gappy, -1.0, 1.0) == plateau_mean(coarse_scan, -1.0, 1.0)
    assert scan_payload(gappy)["fidelity_t0"][1::2] == [None] * n

    empty = PumpScanResult(delays, np.full(2 * n, np.nan), np.full(2 * n, np.nan))
    with pytest.raises(InvalidInputError):
        extract_separation(empty)
    with pytest.raises(InvalidInputError):
        plateau_mean(empty, -1.0, 1.0)
    assert scan_payload(empty)["separation_ps"] is None


def test_scan_point_without_events_is_nan():
    scan = run_pump_delay_scan(ExperimentConfig(seed=5), [0.0, 1.0, 2.0, 3.0], pulses_per_point=10)
    both = np.concatenate([scan.fidelity_t0, scan.fidelity_t1])
    assert np.isnan(both).any()
    assert np.all(np.isnan(both) | ((both >= 0.0) & (both <= 1.0)))


def test_stability_sample_without_events_is_nan():
    res = run_stability(ExperimentConfig(seed=6), hours=1.0, pulses_per_sample=20)
    assert np.isnan(res.qber_series).any()
    assert any(np.isnan(series).any() for series in res.fidelity_series.values())
    assert not np.isnan(res.qber_aggregate)
