"""Memory of the streaming paths, measured with tracemalloc.

tracemalloc traces numpy's data buffers as well as Python objects, so a
traced peak is the same on every run and host, unlike the process RSS.
Each check compares a peak against a size that does not grow with the
input, which is what keeps a long run from exhausting memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from timebin_qkd import experiment
from timebin_qkd.cli import main
from timebin_qkd.detection import (
    Block,
    PulseLedger,
    TimeTags,
    accumulate,
    read_pulse_ledger,
    simulate_block,
    simulate_blocks,
    write_pulse_ledger,
)
from timebin_qkd.experiment import ExperimentConfig, run_pump_delay_scan, run_session, run_stability
from timebin_qkd.qubit import BB84_SETTINGS
from timebin_qkd.source import DriftModel, drift_state

MB = 1 << 20


def _peak(fn) -> int:
    """The traced peak, in bytes, of allocations made while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tag_dump_memory_does_not_grow_with_the_pulses(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 10_000)

    def dump(pulses: int) -> None:
        argv = ["session", "--pulses", str(pulses), "--seed", "3",
                "--dump-tags", str(tmp_path / "tags.csv"), "--out", str(tmp_path / "rep.json")]
        assert main(argv) == 0

    dump(20_000)  # warm-up: first-call caches are not part of either peak
    small = _peak(lambda: dump(20_000))
    large = _peak(lambda: dump(200_000))
    assert abs(large - small) < MB, (small, large)


def test_ledger_read_back_and_accumulate_hold_little_beyond_the_ledger(tmp_path):
    # 1e6 pulses, 20,000 of them event pulses: the ledger is 9 bytes per
    # event (an int64 index and an int8 code), 180 kB in memory and in the
    # file, which is read whole before its columns are copied out; nothing
    # is held per pulse
    n, events = 1_000_000, 20_000
    rng = np.random.default_rng(8)
    index = np.sort(rng.choice(n, events, replace=False))
    code = rng.integers(0, 12, events)
    totals = np.bincount(code, minlength=12)
    totals[0] += n - events
    path = tmp_path / "ledger"
    write_pulse_ledger(path, PulseLedger(0, n, totals, index, code))
    tagged = np.sort(rng.choice(index, 5_000, replace=False))
    tags = TimeTags(tagged, rng.integers(0, 2, 5_000), np.rint(rng.normal(0.0, 150.0, 5_000)))
    layout = ExperimentConfig().layout
    got = []
    peak = _peak(lambda: got.append(accumulate(tags, layout, read_pulse_ledger(path))))
    assert got[0].pulses_sent.sum() == n and got[0].counts.sum() > 4_000
    assert peak < 1 * MB, peak


def test_record_holds_no_pulse_sized_temporaries():
    # a 1e6-pulse block's 20,000 or so events take a few hundred kB, its
    # ledger 9 bytes each of them; one int64 array per pulse is 8 MB
    cfg = ExperimentConfig(seed=3)

    def block_record():
        block = Block(
            BB84_SETTINGS[0], 1_000_000, cfg.budget, cfg.switch, np.random.default_rng(3)
        )
        ((_, _, record),) = simulate_blocks([block], cfg.source, cfg.detector, cfg.layout)
        return record

    block_record()()  # warm-up: first-call caches are not part of the peak
    record = block_record()
    got = []
    peak = _peak(lambda: got.append(record()))
    assert len(got[0][1]) == 1_000_000
    assert peak < 4 * MB, peak


def test_long_scan_keeps_only_its_per_point_results():
    # the result is three float arrays of one entry per delay
    cfg = ExperimentConfig(seed=3)
    run_pump_delay_scan(cfg, [0.0], pulses_per_point=20)
    small = _peak(lambda: run_pump_delay_scan(cfg, np.arange(30.0), pulses_per_point=20))
    large = _peak(lambda: run_pump_delay_scan(cfg, np.arange(300.0), pulses_per_point=20))
    assert large - small < 64 * 1024, (small, large)


def test_long_stability_run_keeps_only_its_per_sample_series():
    # per extra sample the result keeps its time and five series entries,
    # six float64 (48 B), and the run holds its two drift offsets, two
    # float64 (16 B): 64 B a sample, 17 KB for the 270 extra ones.
    # Each sample's counts, 60 int64 in two arrays, take about 1 KB with
    # their objects, so a run that kept them all would grow by some 270 KB
    cfg = ExperimentConfig(seed=3)

    def stability(hours: int) -> None:
        run_stability(cfg, hours=hours, samples_per_hour=1, pulses_per_sample=20)

    stability(1)
    small = _peak(lambda: stability(29))
    large = _peak(lambda: stability(299))
    assert large - small < 64 * 1024, (small, large)


def test_drift_at_the_longest_grid_keeps_two_floats_a_time():
    # MAX_VALUES times: two float64 arrays are 1.6 MB, where a list of one
    # (power, angle) tuple per time held 11.2 MB at a 20.8 MB peak
    times = np.linspace(0.0, experiment.MAX_VALUES - 1.0, experiment.MAX_VALUES)
    kept = []
    tracemalloc.start()
    try:
        kept.append(drift_state(DriftModel(), 3, times))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2 * MB, retained
    assert peak < 10 * MB, peak
    assert [a.nbytes for a in kept[0]] == [8 * experiment.MAX_VALUES] * 2


def test_widest_scan_batch_holds_only_per_event_arrays(monkeypatch):
    # 5 delays x 2 settings of 4e5 pulses are two batches at the pulse cap,
    # 2 * BLOCK_PULSES; each batch's blocks draw some 40,000 events in all,
    # where an array per pulse of the batch is 16 MB
    cfg = ExperimentConfig(seed=3)
    batches = []
    original = experiment.simulate_blocks

    def recording(blocks, *args):
        batches.append(sum(block.pulses for block in blocks))
        return original(blocks, *args)

    monkeypatch.setattr(experiment, "simulate_blocks", recording)

    def scan() -> None:
        run_pump_delay_scan(cfg, np.arange(5.0), pulses_per_point=400_000)

    scan()
    assert batches == [2 * experiment.BLOCK_PULSES] * 2
    peak = _peak(scan)
    assert peak < 4 * MB, peak


def test_counting_holds_only_per_event_arrays():
    # a 1e6-pulse block draws about 20,000 events at the default loss;
    # its arrays are a few hundred kB, where an array per pulse is 8 MB
    cfg = ExperimentConfig(seed=3)

    def block() -> None:
        simulate_block(
            BB84_SETTINGS[0], 1_000_000, cfg.source, cfg.budget, cfg.switch, cfg.detector, cfg.layout,
            np.random.default_rng(3),
        )

    block()
    assert _peak(block) < MB
    run_session(cfg, pulses=4_000_000, workers=2)
    assert _peak(lambda: run_session(cfg, pulses=4_000_000, workers=2)) < 2 * MB
