from __future__ import annotations

import json
import os
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd import detection, experiment, source
from timebin_qkd.analysis import conditional_probabilities
from timebin_qkd.detection import (
    DetectorModel,
    SessionCounts,
    WindowLayout,
    accumulate,
    simulate_block,
)
from timebin_qkd.errors import ConfigError, InvalidInputError
from timebin_qkd.experiment import (
    COUNTS_SCHEMA,
    SCAN_SCHEMA,
    STABILITY_SCHEMA,
    SWEEP_SCHEMA,
    ExperimentConfig,
    PumpScanResult,
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
from timebin_qkd.qubit import BB84_SETTINGS, Basis
from timebin_qkd.source import (
    PURPOSE_DRIFT,
    PURPOSE_SCAN,
    PURPOSE_STABILITY,
    IntensityClass,
    SourceConfig,
    derived_rng,
)
from timebin_qkd.switch import with_delay

from reference import ledger_columns
from sinks import tagged_session


@pytest.fixture(scope="module")
def coarse_scan():
    cfg = ExperimentConfig(seed=5)
    delays = np.arange(-4.0, 12.0 + 1e-9, 1.0)
    return run_pump_delay_scan(cfg, delays, pulses_per_point=20_000)


def test_config_dict_round_trip():
    cfg = ExperimentConfig(seed=7, detector=DetectorModel(recombination_phase=0.3))
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


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 2.5})
    with pytest.raises(ConfigError):
        config_from_dict({"source": {"mu": -0.1}})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=True)


def test_config_takes_a_numpy_integer_seed_as_int():
    for seed in (np.int64(7), np.uint32(7)):
        cfg = ExperimentConfig(seed=seed)
        assert type(cfg.seed) is int
        assert cfg == ExperimentConfig(seed=7)
    for seed in (np.float64(7.0), np.int64(-1)):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=seed)


def test_config_of_numpy_numbers_reads_back_from_its_own_dict():
    cfg = ExperimentConfig(
        source=SourceConfig(mu=np.float64(0.8), rep_rate_hz=np.float64(4e7)),
        layout=WindowLayout(width_ps=np.float64(700.0)),
        seed=np.int64(5),
    )
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert type(back.source.mu) is float and type(back.seed) is int


def test_config_refuses_a_dark_probability_above_one_from_the_rate_and_the_width():
    # 1e9 Hz over the default 800 ps window is 0.8 dark clicks, over 2000 ps 2
    fast = DetectorModel(dark_count_rate_hz=1e9)
    wide = WindowLayout(width_ps=2000.0)
    ExperimentConfig(detector=fast)
    ExperimentConfig(layout=wide)
    with pytest.raises(ConfigError, match="width_ps"):
        ExperimentConfig(detector=fast, layout=wide)
    # exactly one dark click per window is a probability, not above 1
    ExperimentConfig(detector=DetectorModel(dark_count_rate_hz=1.25e9))
    with pytest.raises(ConfigError, match="above 1"):
        config_from_dict({"detector": {"dark_count_rate_hz": 1e9}, "layout": {"width_ps": 2000}})


def test_config_values_keep_their_field_types():
    cfg = config_from_dict({"source": {"mu": 1}})
    assert type(cfg.source.mu) is float and cfg.source.mu == 1.0
    for section, key, value in [
        ("source", "mu", "0.8"), ("source", "mu", None), ("source", "mu", True),
        ("source", "mu", [0.8]), ("source", "mu", 10**400),
        ("source", "class_probabilities", ["0.7", 0.2, 0.1]),
        ("source", "class_probabilities", 0.7),
        ("detector", "stray_time_policy", 1),
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


def test_engine_lays_out_blocks_by_point_setting_and_block(monkeypatch):
    # at 1,000 pulses per block a 2,500-pulse train has blocks of 1,000, 1,000 and 500
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    cfg = ExperimentConfig(seed=31)
    ledgers = []
    run_session(cfg, pulses=2_500, sink=lambda tags, ledger: ledgers.append(ledger))
    assert [(ledger.start_index, len(ledger)) for ledger in ledgers] == [
        (s * 2_500 + start, n)
        for s in range(4)
        for start, n in ((0, 1_000), (1_000, 1_000), (2_000, 500))
    ]

    # block b of time setting s draws from (seed, PURPOSE_SCAN, s, b) at every point
    totals = []
    original = experiment._run_points

    def recording(*args, **kwargs):
        for total in original(*args, **kwargs):
            totals.append(total)
            yield total

    monkeypatch.setattr(experiment, "_run_points", recording)
    delays = [0.0, 3.0]
    run_pump_delay_scan(cfg, delays, pulses_per_point=2_500)
    time_settings = [setting for setting in BB84_SETTINGS if setting.basis == Basis.TIME]
    assert len(totals) == len(delays)
    for delay, total in zip(delays, totals):
        switch = with_delay(cfg.switch, delay)
        lone = SessionCounts.zeros()
        for s, setting in enumerate(time_settings):
            for b, n in enumerate((1_000, 1_000, 500)):
                rng = derived_rng(cfg.seed, PURPOSE_SCAN, s, b)
                lone += simulate_block(
                    setting, n, cfg.source, cfg.budget, switch, cfg.detector, cfg.layout, rng
                )
        assert lone.counts.sum() > 0
        assert total == lone


def test_engine_derives_each_stream_once_per_key(monkeypatch):
    keys = []

    def counting(master_seed, *key):
        keys.append(key)
        return derived_rng(master_seed, *key)

    monkeypatch.setattr(experiment, "derived_rng", counting)
    monkeypatch.setattr(source, "derived_rng", counting)
    cfg = ExperimentConfig(seed=3)
    # every scan point shares one key: two time settings, one block each
    run_pump_delay_scan(cfg, np.arange(0.0, 8.0, 1.0), pulses_per_point=2_000)
    assert sorted(keys) == [(PURPOSE_SCAN, 0, 0), (PURPOSE_SCAN, 1, 0)]
    # each stability sample has a key of its own, and each drift channel one
    keys.clear()
    run_stability(cfg, hours=2, samples_per_hour=1, pulses_per_sample=2_000)
    assert sorted(keys) == [(PURPOSE_STABILITY, k, s, 0) for k in range(3) for s in range(4)] + [
        (PURPOSE_DRIFT, 0),
        (PURPOSE_DRIFT, 1),
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


@pytest.mark.parametrize("policy", ["random", "discard"])
@pytest.mark.parametrize(
    "dark_hz, pulses", [(100.0, 5_000), (1e7, 200_000)], ids=["few-darks", "doubles"]
)
def test_run_session_tags_rebuild_the_counts(dark_hz, pulses, policy):
    # with no timing jitter every tag stays in its window, so offline
    # accumulation of the tag record reproduces the online counts exactly.
    # 1e7 Hz darks add doubles and clustered events that dead time drops.
    # accumulate drops a pulse with two tags, a double: "discard" drops it
    # too, and "random" counts it once, with a random bit, on its pathway.
    cfg = ExperimentConfig(seed=9)
    cfg = replace(cfg, detector=replace(
        cfg.detector, jitter_sigma_ps=0.0, dark_count_rate_hz=dark_hz, double_click_policy=policy,
    ))
    res, tags, ledger = tagged_session(cfg, pulses=pulses)
    assert len(ledger) == 4 * pulses
    assert ledger.start_index == 0
    order = np.lexsort((tags.timestamp_ps, tags.pulse_index))
    assert np.array_equal(order, np.arange(len(tags)))
    rebuilt = accumulate(tags, cfg.layout, ledger)
    pulse, first, n_tags = np.unique(tags.pulse_index, return_index=True, return_counts=True)
    # every tagged pulse is an event pulse: its code is found among the events'
    two = np.searchsorted(ledger.index, pulse[n_tags == 2])
    assert np.array_equal(ledger.index[two], pulse[n_tags == 2])
    doubles = np.zeros((3, 2, 2, 2), dtype=np.int64)
    class_idx, alpha, bit = ledger_columns(ledger)
    np.add.at(doubles, (class_idx[two], alpha[two], bit[two], tags.detector_id[first[n_tags == 2]]), 1)
    assert (doubles.sum() > 0) == (dark_hz > 100.0)
    if policy == "discard" or not doubles.any():
        assert rebuilt == res.counts
    else:
        assert np.array_equal(rebuilt.pulses_sent, res.counts.pulses_sent)
        assert np.array_equal(res.counts.counts.sum(axis=4), rebuilt.counts.sum(axis=4) + doubles)


@pytest.mark.parametrize("dark_hz", [100.0, 1e7])
def test_tags_do_not_change_the_counts(dark_hz):
    # tag and ledger draws come after every draw the counts use; the high
    # dark rate adds doubles, whose policy binomials the counts do depend on
    cfg = ExperimentConfig(seed=13)
    cfg = replace(cfg, detector=replace(cfg.detector, dark_count_rate_hz=dark_hz))
    plain = run_session(cfg, pulses=200_000)
    for workers in (None, 2):
        tagged, _, _ = tagged_session(cfg, pulses=200_000, workers=workers)
        assert tagged.counts == plain.counts


def test_tables_switch_each_block_once(monkeypatch):
    # one switch per distinct (setting, switch) pair of a batch; perfbench
    # wraps the switch at this name.  Each of the scan's delays is a switch
    # of its own, and the sweep's two points, one batch, share theirs.
    switched = []
    original = detection.apply_switch_both_bins

    def counting(q, model):
        switched.append(model)
        return original(q, model)

    monkeypatch.setattr(detection, "apply_switch_both_bins", counting)
    cfg = ExperimentConfig(seed=4)
    run_pump_delay_scan(cfg, [0.0, 2.0, 4.0], pulses_per_point=2_000)
    assert len(switched) == 6
    switched.clear()
    run_session(cfg, pulses=2_000)
    assert len(switched) == 4
    switched.clear()
    run_loss_sweep(cfg, [1.0, 2.0], pulses=2_000)
    assert len(switched) == 4


def _session_outcome(cfg, **workers):
    result = run_session(cfg, pulses=20_000, **workers)
    return result.counts, result.report


def _tagged_outcome(cfg, **workers):
    result, tags, ledger = tagged_session(cfg, pulses=20_000, **workers)
    return (
        result.counts,
        result.report,
        *(getattr(tags, name) for name in ("pulse_index", "detector_id", "timestamp_ps")),
        ledger.code,
    )


def _sweep_outcome(cfg, **workers):
    sweep = run_loss_sweep(cfg, [1.0, 6.0], pulses=20_000, **workers)
    return sweep.rates_bps, sweep.reports


def _scan_outcome(cfg, **workers):
    scan = run_pump_delay_scan(cfg, [0.0, 4.5], pulses_per_point=20_000, **workers)
    return scan.fidelity_t0, scan.fidelity_t1


def _stability_outcome(cfg, **workers):
    run = run_stability(cfg, hours=1, samples_per_hour=1, pulses_per_sample=20_000, **workers)
    return run.counts, run.report, run.qber_series


@pytest.mark.parametrize(
    "flow",
    [_session_outcome, _tagged_outcome, _sweep_outcome, _scan_outcome, _stability_outcome],
    ids=["session", "tagged-session", "sweep", "scan", "stability"],
)
def test_every_flow_runs_its_blocks_on_the_calling_thread(flow, monkeypatch):
    # every train holds full-size blocks, and two CPUs are usable whatever
    # the host: `workers=2` still starts no thread and changes no result
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 10_000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    block_threads = set()
    original = experiment.simulate_blocks

    def recording_block(*args, **kwargs):
        block_threads.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_blocks", recording_block)
    cfg = ExperimentConfig(seed=21)
    threaded = flow(cfg, workers=2)
    assert block_threads == {threading.get_ident()}
    np.testing.assert_equal(threaded, flow(cfg))


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
    # a batch of short blocks holds at most 2 * BLOCK_PULSES pulses: four
    # trains of 500 pulses fill one; of 600, the fourth starts another
    run_session(cfg, pulses=500)
    run_session(cfg, pulses=600)
    # a full-size block is a batch of its own; 2,500 pulses are 1,000 + 1,000 + 500
    run_session(cfg, pulses=2_500)
    # 40 delays x 2 settings of 20 pulses: at most BATCH_BLOCKS = 32 blocks a batch
    run_pump_delay_scan(cfg, np.arange(40.0), pulses_per_point=20)
    assert batch_sizes == [
        [500] * 4,
        [600] * 3, [600],
        *[[1_000], [1_000], [500]] * 4,
        [20] * 32, [20] * 32, [20] * 16,
    ]


def test_batches_follow_the_batch_rule_for_any_train(monkeypatch):
    # seeded random trains at 50 pulses a block: full-size blocks, short
    # trains, and trains of full blocks and a short last one
    block = 50
    monkeypatch.setattr(experiment, "BLOCK_PULSES", block)
    batches = []
    original = experiment.simulate_blocks

    def recording(blocks, *args):
        batches.append(blocks)
        return original(blocks, *args)

    monkeypatch.setattr(experiment, "simulate_blocks", recording)
    cfg = ExperimentConfig(seed=6)
    rng = np.random.default_rng(29)
    for _ in range(60):
        pulses = int(rng.choice([
            rng.integers(1, 7), rng.integers(1, block), block * rng.integers(1, 4),
            rng.integers(block + 1, 6 * block),
        ]))
        settings = BB84_SETTINGS[:rng.integers(1, 5)]
        # each point's loss tells its blocks apart from those of other points
        points = [
            ((PURPOSE_SCAN,), replace(cfg.budget, channel_db=float(k)), cfg.switch)
            for k in range(rng.integers(1, 25))
        ]
        batches.clear()
        assert len(list(experiment._run_points(cfg, settings, points, pulses))) == len(points)
        order = [
            (b.budget.channel_db, b.start_index) for blocks in batches for b in blocks
        ]
        starts = range(0, pulses, block)
        assert order == [
            (float(k), s * pulses + start)
            for k in range(len(points)) for s in range(len(settings)) for start in starts
        ], pulses
        for blocks in batches:
            sizes = [b.pulses for b in blocks]
            assert len(blocks) <= 32 and sum(sizes) <= 2 * block
            assert block not in sizes or sizes == [block]
            trains = [(b.budget.channel_db, b.setting) for b in blocks]
            assert len(set(trains)) == len(trains)
        # a batch of short blocks is cut only when the next block is full or
        # would break a cap
        for blocks, after in zip(batches, batches[1:]):
            if blocks[0].pulses < block:
                assert (
                    after[0].pulses == block or len(blocks) == 32
                    or sum(b.pulses for b in blocks) + after[0].pulses > 2 * block
                )


def test_scan_fidelity_is_the_time_pathway_share_of_each_point(monkeypatch):
    totals = []
    original = experiment._run_points

    def recording(*args, **kwargs):
        for total in original(*args, **kwargs):
            totals.append(total)
            yield total

    monkeypatch.setattr(experiment, "_run_points", recording)
    delays = np.linspace(-4.0, 12.0, 10)
    cfg = ExperimentConfig(seed=17)
    # at 300 dB no point has a time-pathway event
    for channel_db in (cfg.budget.channel_db, 300.0):
        totals.clear()
        lossy = replace(cfg, budget=replace(cfg.budget, channel_db=channel_db))
        scan = run_pump_delay_scan(lossy, delays, pulses_per_point=3_000)
        expected = np.array([
            [
                conditional_probabilities(total, IntensityClass.SIGNAL, Basis.TIME, bit, Basis.TIME)[bit]
                for total in totals
            ]
            for bit in (0, 1)
        ])
        assert len(totals) == len(delays)
        assert np.stack([scan.fidelity_t0, scan.fidelity_t1]).tobytes() == expected.tobytes()
        assert np.isnan(expected).all() == (channel_db == 300.0)


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
        assert np.array_equal(a_ledger.code, b_ledger.code)
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


@pytest.mark.parametrize(
    "flow, layout",
    [
        # 12 full-size blocks, each a batch of its own
        (lambda cfg: run_session(cfg, pulses=3_000_000), [1] * 12),
        # 40 delays x 2 settings of 20,000 pulses: batches of 32, 32 and 16 blocks
        (lambda cfg: run_pump_delay_scan(cfg, np.arange(40.0), pulses_per_point=20_000),
         [32, 32, 16]),
    ],
    ids=["session", "scan"],
)
def test_no_record_outlives_the_reduce_of_its_batch(flow, layout, monkeypatch):
    # each record holds its batch's event arrays, so a record still alive
    # while the next batch is simulated doubles the engine's memory
    records, alive, sizes = [], [], []
    original = experiment.simulate_blocks

    def watched(blocks, *args):
        alive.append(sum(ref() is not None for ref in records))
        results = original(blocks, *args)
        records.extend(weakref.ref(record) for *_, record in results)
        sizes.append(len(blocks))
        return results

    monkeypatch.setattr(experiment, "simulate_blocks", watched)
    flow(ExperimentConfig(seed=3))
    assert len(alive) > 1 and alive == [0] * len(alive)
    assert all(ref() is None for ref in records)
    assert sizes == layout


@pytest.mark.parametrize("pulses", [2500.7, 5e4, True, False, 0, -3, "100"])
@pytest.mark.parametrize(
    "flow, keyword",
    [
        (lambda cfg, n: run_session(cfg, pulses=n), "pulses"),
        (lambda cfg, n: run_loss_sweep(cfg, [1.0], pulses=n), "pulses"),
        (lambda cfg, n: run_pump_delay_scan(cfg, [0.0], pulses_per_point=n), "pulses_per_point"),
        (lambda cfg, n: run_stability(cfg, hours=1, pulses_per_sample=n), "pulses_per_sample"),
    ],
)
def test_train_length_must_be_an_integer_of_at_least_one(flow, keyword, pulses, monkeypatch):
    # a float used to be truncated by the session and raised a bare
    # TypeError in the scan and the stability run; True ran one pulse
    def no_blocks(*args):
        raise AssertionError("a block ran before the train length was checked")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    with pytest.raises(InvalidInputError, match=f"^{keyword} must"):
        flow(ExperimentConfig(seed=3), pulses)


def test_train_length_accepts_numpy_integers():
    cfg = ExperimentConfig(seed=3)
    assert run_session(cfg, pulses=np.int64(2_000)).counts == run_session(cfg, pulses=2_000).counts
    scan = run_pump_delay_scan(cfg, [0.0], pulses_per_point=np.uint16(500))
    assert scan.fidelity_t0.tolist() == run_pump_delay_scan(
        cfg, [0.0], pulses_per_point=500
    ).fidelity_t0.tolist()


def test_a_long_session_builds_no_block_list(monkeypatch):
    # 10**11 pulses a setting are 10**5 blocks; a list of them took 13 MB
    # before the first block ran.  The stand-in engine stops at the first.
    def first_block(*args):
        raise RuntimeError("stand-in")

    monkeypatch.setattr(experiment, "simulate_blocks", first_block)
    cfg = ExperimentConfig()
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="stand-in"):
            run_session(cfg, pulses=10**11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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


def test_each_sweep_point_matches_its_session():
    # the three points are one batch, so they share each setting's switch
    # and projection, and each still draws the session's streams
    cfg = ExperimentConfig(seed=12)
    losses = [1.0, 4.0, 7.0]
    sweep = run_loss_sweep(cfg, losses, pulses=25_000)
    for loss, report in zip(losses, sweep.reports):
        point = replace(cfg, budget=replace(cfg.budget, channel_db=loss))
        assert report.to_dict() == run_session(point, pulses=25_000).report.to_dict()


def test_each_scan_delay_matches_its_own_scan():
    # a later delay reseeds its streams from the cached words; a lone
    # delay derives them afresh
    cfg = ExperimentConfig(seed=21)
    delays = [-1.0, 2.0, 5.0]
    scan = run_pump_delay_scan(cfg, delays, pulses_per_point=5_000)
    for k, delay in enumerate(delays):
        lone = run_pump_delay_scan(cfg, [delay], pulses_per_point=5_000)
        for a, b in ((scan.fidelity_t0[k], lone.fidelity_t0[0]), (scan.fidelity_t1[k], lone.fidelity_t1[0])):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()


def _engine_draws(rng):
    # one call of each Generator method the engine calls, at small sizes
    labels = np.arange(40)
    rng.shuffle(labels)
    return [
        rng.standard_exponential(7),
        rng.random(5),
        rng.multinomial(1_000, [0.1, 0.2, 0.3, 0.4]),
        rng.multinomial([30, 40], [0.5, 0.25, 0.25]),
        rng.binomial([3, 9, 27], 0.5),
        labels,
        rng.normal(0.0, 150.0, size=6),
        rng.poisson(0.8, size=6),
    ]


def test_cached_stream_draws_what_its_seed_sequence_draws():
    for key in [(0, 0, 0), (1, 1, 0), (2, 7, 3, 0)]:
        seq = derived_rng(2024, *key).bit_generator.seed_seq
        cached = experiment._StreamSeed(seq)
        for _ in range(2):  # each generator on the cached words starts afresh
            expected = _engine_draws(np.random.Generator(np.random.PCG64(seq)))
            got = _engine_draws(np.random.Generator(np.random.PCG64(cached)))
            for a, b in zip(expected, got):
                assert a.dtype == b.dtype and np.array_equal(a, b), key


def test_cached_stream_passes_other_requests_to_its_sequence():
    seq = np.random.SeedSequence(entropy=7, spawn_key=(1, 0, 0))
    cached = experiment._StreamSeed(seq)
    words = cached.generate_state(4, np.uint64)
    assert np.array_equal(words, seq.generate_state(4, np.uint64))
    words[0] ^= 1  # a copy: the next generator still gets the right words
    assert np.array_equal(cached.generate_state(4, np.uint64), seq.generate_state(4, np.uint64))
    for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64), (1, np.uint32)]:
        got = cached.generate_state(n_words, dtype)
        want = seq.generate_state(n_words, dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want), (n_words, dtype)
    assert np.array_equal(cached.generate_state(3), seq.generate_state(3))


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


def test_the_stability_drift_follows_the_master_seed(monkeypatch):
    # the switch of every sample, as the flow hands it to the engine
    switches = {}
    original = experiment._run_points

    def recording(config, settings, points, pulses):
        points = list(points)
        switches[config.seed] = [switch for _, _, switch in points]
        return original(config, settings, points, pulses)

    monkeypatch.setattr(experiment, "_run_points", recording)
    for seed in (1, 2):
        cfg = ExperimentConfig(seed=seed)
        run_stability(cfg, hours=3.0, samples_per_hour=1, pulses_per_sample=200)
        power, angle = source.drift_state(cfg.drift, seed, [0.0, 1.0, 2.0, 3.0])
        assert [switch.delta_phi_peak for switch in switches[seed]] == [
            cfg.switch.delta_phi_peak * (1.0 + dpow) for dpow in power.tolist()
        ]
        assert [switch.theta for switch in switches[seed]] == [
            cfg.switch.theta + dtheta for dtheta in angle.tolist()
        ]
    assert switches[1] != switches[2]


@pytest.mark.parametrize("per_hour", [0.5, 1.5, True, "2", 0, -1])
def test_run_stability_takes_only_an_integer_samples_per_hour(per_hour, monkeypatch):
    # unchecked, 0.5, 1.5 and True would build grids of one, three and two samples
    def unreached(*args):
        pytest.fail("the grid was simulated")

    monkeypatch.setattr(experiment, "_run_points", unreached)
    with pytest.raises(InvalidInputError, match="samples_per_hour"):
        run_stability(ExperimentConfig(), hours=1, samples_per_hour=per_hour)


@pytest.mark.parametrize("workers", [2.5, True, "2", 0])
def test_the_engine_takes_only_an_integer_worker_count(workers, monkeypatch):
    def no_blocks(*args):
        pytest.fail("a block ran")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    with pytest.raises(InvalidInputError, match="workers"):
        run_session(ExperimentConfig(), pulses=1000, workers=workers)


def test_the_engine_takes_a_numpy_integer_worker_count():
    cfg = ExperimentConfig(seed=4)
    assert run_session(cfg, pulses=1000, workers=np.int64(2)).counts == run_session(
        cfg, pulses=1000
    ).counts


def test_run_stability_refuses_boolean_hours(monkeypatch):
    # unchecked, True would run a grid of [0, 0.5, 1]
    def unreached(*args):
        pytest.fail("the grid was simulated")

    monkeypatch.setattr(experiment, "_run_points", unreached)
    with pytest.raises(InvalidInputError, match="hours"):
        run_stability(ExperimentConfig(), hours=True)


@pytest.mark.parametrize(
    "flow, match",
    [
        (lambda cfg: run_stability(cfg, hours="2"), "hours"),
        (lambda cfg: run_stability(cfg, hours=10**400), "hours"),
        (lambda cfg: run_pump_delay_scan(cfg, ["a"]), "pump delay"),
        (lambda cfg: run_pump_delay_scan(cfg, [0.0, None]), "pump delay"),
        (lambda cfg: run_pump_delay_scan(cfg, [np.bool_(True)]), "pump delay"),
        (lambda cfg: run_loss_sweep(cfg, ["a"]), "channel loss"),
        (lambda cfg: run_loss_sweep(cfg, [True], pulses=1000), "channel loss"),
        (lambda cfg: run_loss_sweep(cfg, [[1.0, 2.0]]), "channel loss"),
    ],
    ids=["hours-str", "hours-huge", "delay-str", "delay-none", "delay-numpy-bool",
         "loss-str", "loss-bool", "loss-nested"],
)
def test_flows_refuse_non_numeric_arguments_before_any_block(flow, match, monkeypatch):
    # these raised TypeError or ValueError, and a boolean loss ran at 1 dB
    def no_blocks(*args):
        pytest.fail("a block ran")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    with pytest.raises(InvalidInputError, match=match):
        flow(ExperimentConfig(seed=3))


def test_flows_take_numpy_and_integer_numbers():
    cfg = ExperimentConfig(seed=3)
    sweep = run_loss_sweep(cfg, np.array([4.0, 1]), pulses=1000)
    assert sweep.channel_db.tolist() == [1.0, 4.0]
    assert sweep.rates_bps.tolist() == run_loss_sweep(cfg, [1.0, 4.0], pulses=1000).rates_bps.tolist()
    scan = run_pump_delay_scan(cfg, [np.float32(0.5), 2], pulses_per_point=500)
    assert scan.delays_ps.tolist() == [0.5, 2.0]
    assert run_stability(cfg, hours=np.int64(1), pulses_per_sample=200).times_h.tolist() == [
        0.0, 0.5, 1.0
    ]


def test_run_stability_takes_a_numpy_integer_samples_per_hour():
    res = run_stability(
        ExperimentConfig(seed=4), hours=1, samples_per_hour=np.int64(2), pulses_per_sample=200
    )
    assert res.times_h.tolist() == [0.0, 0.5, 1.0]


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

    def stand_in(config, settings, points, *args, **kwargs):
        reached.append(sum(1 for _ in points))
        raise RuntimeError("stand-in")

    monkeypatch.setattr(experiment, "_run_points", stand_in)
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
    # at seed 7 some sample has no matched-basis event while the pooled counts do
    res = run_stability(ExperimentConfig(seed=7), hours=1.0, pulses_per_sample=20)
    assert np.isnan(res.qber_series).any()
    assert any(np.isnan(series).any() for series in res.fidelity_series.values())
    assert not np.isnan(res.qber_aggregate)
