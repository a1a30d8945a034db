from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from timebin_qkd import cli, experiment
from timebin_qkd.cli import MAX_VALUES, _parse_values, main
from timebin_qkd.detection import (
    WINDOW_CENTERS_PS,
    DetectorModel,
    SessionCounts,
    WindowLayout,
    accumulate,
    read_pulse_ledger,
    read_time_tags,
    write_pulse_ledger,
    write_time_tags,
)
from timebin_qkd.errors import InvalidInputError
from timebin_qkd.experiment import (
    COUNTS_SCHEMA,
    REPORT_SCHEMA,
    SCAN_SCHEMA,
    STABILITY_SCHEMA,
    SWEEP_SCHEMA,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    read_counts_json,
    write_counts_json,
)
from timebin_qkd.source import SourceConfig

from sinks import tagged_session


def _run_session(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(
        ["session", "--pulses", "20000", "--seed", "11", "--out", str(out), *extra]
    )
    assert rc == 0
    return out


def test_session_writes_a_report(tmp_path):
    out = _run_session(tmp_path, "report.json")
    payload = json.loads(out.read_text())
    assert payload["schema"] == REPORT_SCHEMA
    assert payload["R_bps"] > 0
    assert payload["mu"] == 0.8
    assert payload["matrix"]["labels"] == ["phase:0", "phase:1", "time:0", "time:1"]
    rows = np.asarray(payload["matrix"]["rows"])
    assert rows.shape == (4, 4)
    assert np.allclose(rows.sum(axis=1), 1.0)


def test_session_is_deterministic(tmp_path):
    a = _run_session(tmp_path, "a.json")
    b = _run_session(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_saved_counts_analyze_matches_session(tmp_path):
    counts = tmp_path / "counts.json"
    rep1 = _run_session(tmp_path, "direct.json", "--save-counts", str(counts))
    assert json.loads(counts.read_text())["schema"] == COUNTS_SCHEMA

    rep2 = tmp_path / "from_counts.json"
    assert main(["analyze", "--counts", str(counts), "--out", str(rep2)]) == 0
    r1 = json.loads(rep1.read_text())
    r2 = json.loads(rep2.read_text())
    assert r2["R_bps"] == r1["R_bps"]
    assert r2["Q_mu"] == r1["Q_mu"]


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(ExperimentConfig(seed=3))))
    out1 = tmp_path / "o1.json"
    rc = main(
        ["session", "--config", str(cfg_path), "--seed", "11", "--pulses", "20000",
         "--out", str(out1)]
    )
    assert rc == 0
    out2 = _run_session(tmp_path, "o2.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_set_override_accepts_bare_strings(tmp_path):
    out = _run_session(
        tmp_path, "discard.json", "--set", "detector.double_click_policy=discard"
    )
    assert json.loads(out.read_text())["R_bps"] > 0


def test_dump_tags_writes_record_and_ledger(tmp_path):
    tags_path = tmp_path / "tags.csv"
    counts_path = tmp_path / "counts.json"
    out = tmp_path / "rep.json"
    rc = main(
        ["session", "--pulses", "2000", "--seed", "11", "--out", str(out),
         "--dump-tags", str(tags_path), "--save-counts", str(counts_path)]
    )
    assert rc == 0
    tags = read_time_tags(tags_path)
    ledger = read_pulse_ledger(str(tags_path) + ".ledger")
    assert len(ledger) == 4 * 2000
    assert len(tags) > 0
    assert np.all((tags.pulse_index >= 0) & (tags.pulse_index < 8000))
    # the files read back attribute every pulse as the session counted it
    saved, _ = read_counts_json(counts_path)
    rebuilt = accumulate(tags, ExperimentConfig().layout, ledger)
    assert np.array_equal(rebuilt.pulses_sent, saved.pulses_sent)


# 25,000 pulses per setting: at 10,000 pulses a block, three blocks, the
# last one short, and each full block a batch of its own; at 100,000, one
# block per setting, and the four blocks share one batch
BLOCK_LAYOUTS = pytest.mark.parametrize(
    "block_pulses", [10_000, 100_000], ids=["three-blocks", "one-shared-batch"]
)


@BLOCK_LAYOUTS
def test_dump_streamed_across_blocks_equals_the_whole_session_written_at_once(
    tmp_path, monkeypatch, block_pulses
):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", block_pulses)
    dumped = tmp_path / "tags.csv"
    argv = ["session", "--pulses", "25000", "--seed", "5", "--out", str(tmp_path / "rep.json")]
    assert main([*argv, "--dump-tags", str(dumped)]) == 0
    _, tags, ledger = tagged_session(ExperimentConfig(seed=5), pulses=25_000)
    write_time_tags(tmp_path / "whole.csv", tags)
    write_pulse_ledger(tmp_path / "whole.csv.ledger", ledger)
    assert len(ledger) == 100_000 and len(tags) > 0
    assert dumped.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # the dump's appends summed into one summary record: the same bytes as
    # the whole ledger written at once, however the blocks fell
    streamed = (tmp_path / "tags.csv.ledger").read_bytes()
    assert streamed == (tmp_path / "whole.csv.ledger").read_bytes()
    assert len(streamed) == len(b"timebin-qkd pulse ledger/4\n") + 120 + 9 * len(ledger.index)


@BLOCK_LAYOUTS
def test_dumped_files_read_back_as_the_in_memory_record(tmp_path, monkeypatch, block_pulses):
    # timestamps are rounded to whole picoseconds once, when drawn, so the
    # files give back the sink's tags column for column, and the same counts
    monkeypatch.setattr(experiment, "BLOCK_PULSES", block_pulses)
    dumped = tmp_path / "tags.csv"
    argv = ["session", "--pulses", "25000", "--seed", "9", "--out", str(tmp_path / "rep.json")]
    assert main([*argv, "--dump-tags", str(dumped)]) == 0
    _, tags, ledger = tagged_session(ExperimentConfig(seed=9), pulses=25_000)
    back = read_time_tags(dumped)
    assert len(back) > 1000 and back.timestamp_ps.dtype == np.int64
    for name in ("pulse_index", "detector_id", "timestamp_ps"):
        assert np.array_equal(getattr(back, name), getattr(tags, name)), name
    layout = ExperimentConfig().layout
    from_files = accumulate(back, layout, read_pulse_ledger(f"{dumped}.ledger"))
    assert from_files == accumulate(tags, layout, ledger)
    assert from_files.counts.sum() > 1000


def test_session_failing_mid_run_leaves_no_dump_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 1_000)
    original = experiment.simulate_blocks
    calls = []

    def failing_block(*args, **kwargs):
        # every block is full-size, so each batch is one block
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("block failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "simulate_blocks", failing_block)
    dumped = tmp_path / "tags.csv"
    argv = ["session", "--pulses", "2000", "--seed", "5", "--dump-tags", str(dumped)]
    assert main(argv) != 0
    assert len(calls) == 3
    assert _last_error(capsys)["message"] == "block failed"
    # neither PATH nor PATH.ledger, and no temp file beside them
    assert list(tmp_path.iterdir()) == []


def test_sweep_loss_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep-loss", "--losses", "1,3", "--pulses", "5000", "--seed", "11",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "channel_db,R_bps,Q_mu,E_mu"
    assert len(lines) == 3

    out_json = tmp_path / "sweep.json"
    rc = main(
        ["sweep-loss", "--losses", "1:3:2", "--pulses", "5000", "--seed", "11",
         "--out", str(out_json)]
    )
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == SWEEP_SCHEMA
    assert payload["channel_db"] == [1.0, 3.0]


def test_pump_scan_with_negative_range(tmp_path):
    out = tmp_path / "scan.json"
    rc = main(
        ["pump-scan", "--delays=-1:1:1", "--pulses-per-point", "3000",
         "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == SCAN_SCHEMA
    assert payload["pump_delay_ps"] == [-1.0, 0.0, 1.0]
    # too narrow a scan to see both slot features
    assert payload["separation_ps"] is None


def test_stability_json(tmp_path):
    out = tmp_path / "stab.json"
    rc = main(
        ["stability", "--hours", "1", "--samples-per-hour", "1",
         "--pulses-per-sample", "5000", "--seed", "6", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == STABILITY_SCHEMA
    assert payload["times_h"] == [0.0, 1.0]
    assert "E_mu" in payload


def test_error_exit_codes(tmp_path, capsys):
    def last_error():
        line = capsys.readouterr().err.strip().split("\n")[-1]
        return json.loads(line)

    rc = main(["session", "--pulses", "100", "--set", "detector.bogus=1"])
    assert rc == 2
    assert last_error()["category"] == "config"

    # a config file is validated on its own, before --seed touches it
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    rc = main(["session", "--config", str(not_object), "--seed", "3", "--pulses", "100"])
    assert rc == 2
    assert last_error()["category"] == "config"

    rc = main(["pump-scan", "--delays", "abc", "--pulses-per-point", "100"])
    assert rc == 3
    assert last_error()["category"] == "input"

    rc = main(["analyze", "--counts", str(tmp_path / "nope.json")])
    assert rc == 4
    assert last_error()["category"] == "io"


def test_analyze_without_vacuum_pulses_reports_a_flagged_zero_rate(tmp_path):
    # counts with no vacuum pulses cannot anchor the background yield
    novac = tmp_path / "novac.json"
    counts = SessionCounts.zeros()
    counts.pulses_sent[0] = 1000
    counts.pulses_sent[1] = 1000
    counts.counts[0, :, :, :, :] = 5
    counts.counts[1, :, :, :, :] = 3
    write_counts_json(novac, counts, SourceConfig())
    out = tmp_path / "report.json"
    assert main(["analyze", "--counts", str(novac), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["R_bps"] == 0.0 and report["Y_0"] is None
    assert "no-vacuum-pulses" in report["flags"]


@pytest.mark.parametrize("mu, code", [(709.0, 0), (800.0, 3)])
def test_analyze_refuses_a_mu_whose_exponential_is_no_float(mu, code, tmp_path, capsys):
    # e**709 is a float, and the bound on Y_1 clamps to a flagged zero;
    # e**800 overflowed in the decoy bounds
    path = tmp_path / "counts.json"
    counts = SessionCounts.zeros()
    counts.pulses_sent[:] = 1000
    counts.counts[:2] = 3
    write_counts_json(path, counts, SourceConfig(mu=mu))
    out = tmp_path / "report.json"
    assert main(["analyze", "--counts", str(path), "--out", str(out)]) == code
    if code:
        err = _last_error(capsys)
        assert err["category"] == "input" and "mu" in err["message"]
    else:
        assert "y1-clamped-zero" in _strict_json(out.read_text())["flags"]


@pytest.mark.parametrize("mu, nu", [(0.3, 5e-324), (0.8, 1e-320)])
def test_analyze_refuses_a_decoy_pair_whose_coefficient_is_no_float(mu, nu, tmp_path, capsys):
    # mu*nu - nu**2 rounds to zero at mu 0.3, and mu over it overflows at
    # mu 0.8: the bound on Y_1 divided by zero, or was NaN
    path = tmp_path / "counts.json"
    counts = SessionCounts.zeros()
    counts.pulses_sent[:] = 1000
    counts.counts[:2] = 3
    write_counts_json(path, counts, SourceConfig(mu=mu, nu=nu))
    assert main(["analyze", "--counts", str(path)]) == 3
    err = _last_error(capsys)
    assert err["category"] == "input" and "nu" in err["message"]


def test_session_at_a_mu_of_709_reports_a_flagged_zero_rate(tmp_path):
    out = tmp_path / "report.json"
    argv = ["session", "--pulses", "2000", "--seed", "1", "--set", "source.mu=709", "--out"]
    assert main([*argv, str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["R_bps"] == 0.0 and "y1-clamped-zero" in report["flags"]


@pytest.mark.parametrize(
    "flag", [["--config", "cfg.json"], ["--set", "source.mu=0.5"], ["--seed", "9"]]
)
def test_analyze_refuses_the_simulation_flags(flag, tmp_path, capsys):
    # analyze reads only the counts file: a config, override or seed would be ignored
    counts = tmp_path / "counts.json"
    write_counts_json(counts, SessionCounts.zeros(), SourceConfig())
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--counts", str(counts), *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["session", "--pulses", "1000"],
        ["sweep-loss", "--losses", "1"],
        ["pump-scan", "--delays", "0"],
        ["stability", "--hours", "1"],
        ["analyze", "--counts", "counts.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_worker_flag_is_gone(argv, capsys):
    # every batch runs on the calling thread: no verb takes a thread count
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--workers", "2"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_session_too_short_for_every_class_writes_its_files(tmp_path, seed):
    # one pulse per setting: some class is never sent
    paths = {name: tmp_path / name for name in ("tags.csv", "counts.json", "report.json")}
    rc = main([
        "session", "--pulses", "1", "--seed", seed,
        "--dump-tags", str(paths["tags.csv"]), "--save-counts", str(paths["counts.json"]),
        "--out", str(paths["report.json"]),
    ])
    assert rc == 0
    assert len(read_pulse_ledger(tmp_path / "tags.csv.ledger")) == 4
    assert paths["tags.csv"].read_bytes().startswith(b"timebin-qkd time tags/2\n")
    assert read_counts_json(paths["counts.json"])[0].pulses_sent.sum() == 4
    report = _strict_json(paths["report.json"].read_text())
    assert report["R_bps"] == 0.0 and report["flags"]


def test_stability_too_short_for_every_class_writes_its_output(tmp_path):
    # one sample of one pulse per setting; at seed 2 none of the four is vacuum-class
    out = tmp_path / "stability.json"
    rc = main([
        "stability", "--hours", "0.01", "--pulses-per-sample", "1", "--seed", "2",
        "--out", str(out),
    ])
    assert rc == 0
    payload = _strict_json(out.read_text())
    assert payload["report"]["R_bps"] == 0.0
    assert "no-vacuum-pulses" in payload["report"]["flags"]


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().split("\n")[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["session", "--set", "source.nu=0"],
        ["session", "--set", "source.class_probabilities=[1,0,0]"],
        ["session", "--set", "source.class_probabilities=[0.8,0,0.2]"],
        ["session", "--set", "source.class_probabilities=[0.8,0.2,0]"],
        ["sweep-loss", "--losses", "1,3", "--set", "source.nu=0"],
        ["stability", "--hours", "1", "--set", "source.class_probabilities=[0.8,0.2,0]"],
        # non-finite or impossible source and detector values
        ["session", "--set", "source.rep_rate_hz=1e400"],
        ["session", "--set", "source.mu=1e400"],
        ["session", "--set", "layout.width_ps=1e400"],
        ["session", "--set", "detector.dark_count_rate_hz=1e12"],
        # 1e9 Hz is 0.8 dark clicks per 800 ps window, but 2 per 2000 ps
        ["session", "--set", "detector.dark_count_rate_hz=1e9", "--set", "layout.width_ps=2000"],
        # a jitter that puts tags beyond 2**53 ps, and a mu whose e**mu, in
        # the decoy bounds, is no float: it failed after every block had run
        ["session", "--set", "detector.jitter_sigma_ps=1e17"],
        ["session", "--pulses", "20000", "--seed", "1", "--set", "source.mu=800"],
        ["sweep-loss", "--losses", "0.45", "--pulses", "20000", "--set", "source.mu=710"],
        ["stability", "--hours", "1", "--set", "source.mu=710"],
        # a nu so small that mu*nu - nu**2 rounds to zero: the decoy bound
        # on Y_1 divided by zero after every block had run
        [
            "session", "--pulses", "200000", "--seed", "1", "--set", "source.mu=0.3",
            "--set", "source.nu=5e-324", "--set", "detector.dark_count_rate_hz=1e5",
        ],
        ["sweep-loss", "--losses", "0.45", "--set", "source.mu=0.3", "--set", "source.nu=5e-324"],
        # at mu 0.8 the denominator is a float, but mu over it overflows
        ["stability", "--hours", "1", "--set", "source.nu=1e-320"],
        # values that pass a range check: NaN, an infinite 5-sigma drift
        # bound, and a pump power walk that would go negative
        ["session", "--set", "source.class_probabilities=[NaN,0.5,0.5]"],
        ["stability", "--hours", "1", "--set", "drift.pump_power_rel_sigma=1e308"],
        ["stability", "--hours", "1", "--set", "drift.pump_polarization_sigma=1e308"],
        ["stability", "--hours", "1", "--set", "drift.pump_power_rel_sigma=2"],
    ],
)
def test_source_without_decoy_or_vacuum_fails_before_simulating(argv, capsys, monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a block ran before the config was rejected")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    assert main(argv) == 2
    assert _last_error(capsys)["category"] == "config"


def test_range_expansion_is_capped(capsys):
    # 1e12 values: refused from the count alone, before any list is built
    assert main(["sweep-loss", "--losses", "0:1:1e-12", "--pulses", "100"]) == 3
    err = _last_error(capsys)
    assert err["category"] == "input"
    assert str(MAX_VALUES) in err["message"]

    assert len(_parse_values(f"0:{MAX_VALUES - 1}:1", "delay")) == MAX_VALUES
    with pytest.raises(InvalidInputError):
        _parse_values(f"0:{MAX_VALUES}:1", "delay")
    with pytest.raises(InvalidInputError):
        _parse_values(f"0:{MAX_VALUES - 1}:1,1:2:1", "delay")
    with pytest.raises(InvalidInputError):
        _parse_values("0:inf:1", "delay")


@pytest.mark.parametrize(
    "hours, per_hour, samples",
    [
        ("1e308", "10", None),  # the product is infinite
        ("1e300", "10", None),
        ("1e9", "10", None),
        ("100000", "1", None),
        ("99999.5", "1", None),  # rounds half to even: 100,001 samples
        ("99999", "1", MAX_VALUES),
        ("99998.5", "1", MAX_VALUES - 1),
        ("nan", "1", "rejected later"),
        ("-5", "1", "rejected later"),
    ],
)
def test_stability_grid_is_capped_before_it_is_built(hours, per_hour, samples, monkeypatch, capsys):
    reached = []

    def stand_in(config, settings, points, *args, **kwargs):
        # never simulates: only counts the samples of the grid
        reached.append(sum(1 for _ in points))
        raise RuntimeError("stand-in")

    monkeypatch.setattr(experiment, "_run_points", stand_in)
    code = main(["stability", "--hours", hours, "--samples-per-hour", per_hour])
    err = _last_error(capsys)
    if samples is None:
        assert code == 3 and reached == []
        assert err["category"] == "input" and str(MAX_VALUES) in err["message"]
    elif samples == "rejected later":
        # not a grid: run_stability refuses the hours before it counts one
        assert code == 3 and reached == []
        assert err["category"] == "input" and "hours" in err["message"]
    else:
        assert code == 1 and err["message"] == "stand-in" and len(reached) == 1
        assert reached[0] == samples


def test_sweep_point_without_decoy_events_reports_zero_rate(capsys):
    # at 30 dB the decoy class gives no matched-basis event at this size
    assert main(["sweep-loss", "--losses", "0.45,30", "--pulses", "200000"]) == 0
    def no_constants(name):
        raise AssertionError(f"{name} in the payload")

    payload = json.loads(capsys.readouterr().out, parse_constant=no_constants)
    assert payload["channel_db"] == [0.45, 30.0]
    assert payload["R_bps"][0] > 0
    deep = payload["reports"][1]
    assert payload["R_bps"][1] == deep["R_bps"] == 0.0
    assert "no-decoy-events" in deep["flags"]
    assert deep["E_nu"] is None


@pytest.mark.parametrize(
    "losses, pulses, flag",
    [
        # no matched-basis signal event at 45 dB: E_mu is undefined
        ("0.45,45", "200000", "no-signal-events"),
        # at this size a 30 dB signal row records no event at all
        ("0.45,30", "20000", "no-decoy-events"),
    ],
)
def test_deep_sweep_points_report_zero_rate(losses, pulses, flag, capsys):
    argv = ["sweep-loss", "--losses", losses, "--pulses", pulses]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    deep = payload["reports"][1]
    assert payload["R_bps"][0] > 0
    assert payload["R_bps"][1] == deep["R_bps"] == 0.0
    assert flag in deep["flags"]
    if flag == "no-signal-events":
        assert deep["E_mu"] is None and deep["H2_E_mu"] is None

    assert main([*argv, "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "channel_db,R_bps,Q_mu,E_mu"
    assert rows[2].startswith(f"{float(losses.split(',')[1])!r},0.0,")
    assert rows[2].endswith(",") == (flag == "no-signal-events")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1.7, "3", True, 1e30, 10**30, None])
def test_analyze_rejects_non_integer_counts(value, tmp_path, capsys):
    counts = tmp_path / "counts.json"
    _run_session(tmp_path, "report.json", "--save-counts", str(counts))
    payload = json.loads(counts.read_text())
    payload["counts"][0][0][0][0][0] = value
    counts.write_text(json.dumps(payload))
    assert main(["analyze", "--counts", str(counts)]) == 3
    assert _last_error(capsys)["category"] == "input"


def test_analyze_rejects_stacked_counts(tmp_path, capsys):
    # a file that holds a stack of count sets, one per block, is refused
    counts = tmp_path / "counts.json"
    _run_session(tmp_path, "report.json", "--save-counts", str(counts))
    payload = json.loads(counts.read_text())
    payload["counts"] = [payload["counts"]] * 3
    payload["pulses_sent"] = [payload["pulses_sent"]] * 3
    counts.write_text(json.dumps(payload))
    assert main(["analyze", "--counts", str(counts)]) == 3
    assert _last_error(capsys)["category"] == "input"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["mu", "nu", "rep_rate_hz"])
@pytest.mark.parametrize("value", ["abc", None, [1], True, 10**400])
def test_analyze_rejects_non_numeric_source_fields(field, value, tmp_path, capsys):
    counts = tmp_path / "counts.json"
    _run_session(tmp_path, "report.json", "--save-counts", str(counts))
    payload = json.loads(counts.read_text())
    payload[field] = value
    counts.write_text(json.dumps(payload))
    assert main(["analyze", "--counts", str(counts)]) == 3
    err = _last_error(capsys)
    assert err["category"] == "input" and field in err["message"]


@pytest.mark.parametrize(
    "argv",
    [["session"], ["stability", "--hours", "1"]],
    ids=["session", "stability"],
)
@pytest.mark.parametrize(
    "override",
    [
        'source.mu="abc"', "source.mu=null", 'layout.width_ps="x"', "detector.dead_time_ns=true",
        "seed=true", "seed=1.5", 'seed="7"', "detector.recombination_phase=true",
        "switch.delta_phi_peak=NaN", "switch.delta_phi_peak=Infinity",
        "switch.walkoff_ps=Infinity", "switch.pump_fwhm_ps=Infinity", "switch.theta=NaN",
    ],
)
def test_config_values_of_the_wrong_type_or_not_finite_fail_before_simulating(
    argv, override, capsys, monkeypatch
):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a block ran before the config was rejected")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    assert main([*argv, "--set", override]) == 2
    err = _last_error(capsys)
    assert err["category"] == "config"
    assert override.split("=")[0].split(".")[-1] in err["message"]


_BEFORE_REMOVAL = ExperimentConfig(seed=3, detector=DetectorModel(recombination_phase=0.1))


def _migrate_window(payload):
    # the window width is layout.width_ps alone: the value moves there, in ps
    payload["layout"]["width_ps"] = payload["detector"].pop("window_ns") * 1000
    return replace(_BEFORE_REMOVAL, layout=WindowLayout(width_ps=800.0))


def _migrate_phase(payload):
    # the one relative phase is the receiver's: the offset adds into it
    payload["detector"]["recombination_phase"] += payload["switch"].pop("bin_phase_offset")
    return replace(_BEFORE_REMOVAL, detector=DetectorModel(recombination_phase=0.1 + 0.4))


def _migrate_centers(payload):
    # the four slot centers are the receiver's, fixed at WINDOW_CENTERS_PS
    del payload["layout"]["centers_ps"]
    return _BEFORE_REMOVAL


def _migrate_drift_seed(payload):
    # the drift walks draw from the master seed: the top-level seed sets them
    del payload["drift"]["seed"]
    return _BEFORE_REMOVAL


def _migrate_pulses(payload):
    # a run's size is the flow's: --pulses or pulses= sets it
    del payload["pulses_per_setting"]
    return _BEFORE_REMOVAL


@pytest.mark.parametrize(
    "path, value, migrate",
    [
        ("detector.window_ns", 0.8, _migrate_window),
        ("switch.bin_phase_offset", 0.4, _migrate_phase),
        ("pulses_per_setting", 1000, _migrate_pulses),
        ("layout.centers_ps", list(WINDOW_CENTERS_PS), _migrate_centers),
        ("drift.seed", 1, _migrate_drift_seed),
    ],
    ids=["detector-window", "switch-phase", "pulses-per-setting", "layout-centers", "drift-seed"],
)
def test_a_config_that_sets_a_removed_key_is_refused(
    path, value, migrate, tmp_path, capsys, monkeypatch
):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a block ran before the config was rejected")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    payload = config_to_dict(_BEFORE_REMOVAL)
    *section, key = path.split(".")
    (payload[section[0]] if section else payload)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    for argv in (
        ["session", "--config", str(cfg_path)],
        ["session", "--pulses", "1000", "--set", f"{path}={value}"],
    ):
        assert main(argv) == 2
        err = _last_error(capsys)
        assert err["category"] == "config" and key in err["message"]
    expected = migrate(payload)
    assert config_from_dict(payload) == expected


# each verb's size flags and the flow that takes them, as the keyword the
# flag spells
_SIZE_FLAGS = [
    (["session"], "--pulses", "run_session"),
    (["sweep-loss", "--losses", "1"], "--pulses", "run_loss_sweep"),
    (["pump-scan", "--delays", "0"], "--pulses-per-point", "run_pump_delay_scan"),
    (["stability"], "--hours", "run_stability"),
    (["stability"], "--samples-per-hour", "run_stability"),
    (["stability"], "--pulses-per-sample", "run_stability"),
]


@pytest.mark.parametrize(
    "verb, flag, flow", _SIZE_FLAGS, ids=[f"{v[0]}{f}" for v, f, _ in _SIZE_FLAGS]
)
def test_a_size_flag_reaches_its_flow_only_when_given(verb, flag, flow, capsys, monkeypatch):
    keyword = flag.lstrip("-").replace("-", "_")

    def no_blocks(*args, **kwargs):
        raise AssertionError("a block ran before the size was rejected")

    monkeypatch.setattr(experiment, "simulate_blocks", no_blocks)
    assert main([*verb, flag, "0"]) == 3
    err = _last_error(capsys)
    assert err["category"] == "input"
    assert keyword in err["message"]

    # without the flag the flow's own default applies: the keyword is not passed
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        raise InvalidInputError("recorded")

    monkeypatch.setattr(cli, flow, record)
    assert main(verb) == 3
    assert len(calls) == 1 and keyword not in calls[0]
    assert main([*verb, flag, "7"]) == 3
    assert calls[1][keyword] == 7


def test_detector_efficiency_is_the_budget_term(tmp_path, capsys):
    assert main(["session", "--set", "detector.efficiency_db=3"]) == 2
    err = _last_error(capsys)
    assert err["category"] == "config" and "efficiency_db" in err["message"]
    gains = []
    for db in ("2.2", "5"):
        out = tmp_path / f"{db}.json"
        argv = ["session", "--pulses", "20000", "--seed", "11", "--out", str(out)]
        assert main([*argv, "--set", f"budget.detector_db={db}"]) == 0
        gains.append(json.loads(out.read_text())["Q_mu"])
    assert gains[1] < gains[0]


def _strict_json(text: str):
    """Parsed JSON; a bare NaN or Infinity token fails the test."""

    def refuse(token):
        raise AssertionError(f"bare {token} in JSON output")

    return json.loads(text, parse_constant=refuse)


def test_deep_loss_session_reports_a_zero_rate_and_writes_its_files(tmp_path):
    # at 40 dB channel loss no signal-class event is recorded in 2000 pulses
    # per setting; the simulation has run, so its outputs are still written
    counts, tags, out = tmp_path / "c.json", tmp_path / "t.csv", tmp_path / "r.json"
    rc = main(
        ["session", "--pulses", "2000", "--set", "budget.channel_db=40",
         "--save-counts", str(counts), "--dump-tags", str(tags), "--out", str(out)]
    )
    assert rc == 0
    payload = _strict_json(out.read_text())
    assert payload["matrix"] is None
    assert payload["R_bps"] == 0.0
    assert "no-signal-events" in payload["flags"]
    saved, _ = read_counts_json(counts)
    assert saved.pulses_sent.sum() == 4 * 2000
    assert len(read_pulse_ledger(f"{tags}.ledger")) == 4 * 2000
    assert len(read_time_tags(tags)) == saved.counts.sum()


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().split("\n")]


def test_scan_points_without_events_are_null(tmp_path):
    # 10 pulses per point: some points record no time-pathway signal event
    argv = ["pump-scan", "--delays=0:3:1", "--pulses-per-point", "10"]
    out = tmp_path / "scan.json"
    assert main([*argv, "--out", str(out)]) == 0
    payload = _strict_json(out.read_text())
    fidelities = payload["fidelity_t0"] + payload["fidelity_t1"]
    assert None in fidelities
    assert all(f is None or 0.0 <= f <= 1.0 for f in fidelities)
    assert payload["separation_ps"] is None

    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert rows[0] == ["pump_delay_ps", "fidelity_t0", "fidelity_t1"]
    fields = [v for row in rows[1:] for v in row[1:]]
    assert fields == ["" if f is None else repr(f) for pair in
                      zip(payload["fidelity_t0"], payload["fidelity_t1"]) for f in pair]


@pytest.mark.parametrize(
    "extra",
    [["--pulses-per-sample", "200"], ["--pulses-per-sample", "20"],
     ["--pulses-per-sample", "200", "--set", "budget.channel_db=60"]],
    ids=["fidelity-gaps", "qber-gaps", "no-events-at-all"],
)
def test_stability_samples_without_events_are_null(tmp_path, extra):
    argv = ["stability", "--hours", "1", *extra]
    out = tmp_path / "stab.json"
    assert main([*argv, "--out", str(out)]) == 0
    payload = _strict_json(out.read_text())
    keys = ["fidelity_phase0", "fidelity_phase1", "fidelity_time0", "fidelity_time1",
            "qber_series"]
    series = [payload[k] for k in keys]
    assert None in [v for s in series for v in s]
    assert (payload["E_mu"] is None) == (extra[-1] == "budget.channel_db=60")

    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert [row[1:] for row in rows[1:]] == [
        ["" if v is None else repr(v) for v in sample] for sample in zip(*series)
    ]


# Runs the CLI with every scipy module made unimportable, then checks that
# none was loaded: the package needs numpy alone at run time.
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
from timebin_qkd.cli import main

code = main(sys.argv[1:])
assert not any(m.partition(".")[0] == "scipy" for m in sys.modules)
sys.exit(code)
"""


def test_session_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, "session", "--pulses", "20000", "--seed", "1",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["schema"] == REPORT_SCHEMA
