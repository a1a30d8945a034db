from __future__ import annotations

import json

import numpy as np
import pytest

from timebin_qkd import experiment
from timebin_qkd.cli import MAX_VALUES, _parse_values, main
from timebin_qkd.detection import SessionCounts, accumulate, read_pulse_ledger, read_time_tags
from timebin_qkd.errors import InvalidInputError
from timebin_qkd.experiment import (
    COUNTS_SCHEMA,
    REPORT_SCHEMA,
    SCAN_SCHEMA,
    STABILITY_SCHEMA,
    SWEEP_SCHEMA,
    ExperimentConfig,
    config_to_dict,
    read_counts_json,
    write_counts_json,
)
from timebin_qkd.source import SourceConfig


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
    assert all(0 <= t.pulse_index < 8000 for t in tags)
    # the files read back attribute every pulse as the session counted it
    saved, _ = read_counts_json(counts_path)
    rebuilt = accumulate(tags, ExperimentConfig().layout, ledger)
    assert np.array_equal(rebuilt.pulses_sent, saved.pulses_sent)


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

    # counts with no vacuum pulses cannot anchor the background yield
    empty = tmp_path / "novac.json"
    counts = SessionCounts.zeros()
    counts.pulses_sent[0] = 1000
    counts.pulses_sent[1] = 1000
    counts.counts[0, :, :, :, :] = 5
    counts.counts[1, :, :, :, :] = 3
    write_counts_json(empty, counts, SourceConfig())
    rc = main(["analyze", "--counts", str(empty)])
    assert rc == 5
    assert last_error()["category"] == "no-data"


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
    ],
)
def test_source_without_decoy_or_vacuum_fails_before_simulating(argv, capsys, monkeypatch):
    def no_blocks(*args, **kwargs):
        raise AssertionError("a block ran before the config was rejected")

    monkeypatch.setattr(experiment, "simulate_block", no_blocks)
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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_with_input_error(workers, capsys):
    assert main(["session", "--pulses", "1000", "--workers", workers]) == 3
    assert _last_error(capsys)["category"] == "input"
