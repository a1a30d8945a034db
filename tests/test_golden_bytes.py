"""Golden bytes: the determinism contract pinned as sha256 of CLI outputs.

Each case runs one CLI verb in-process at a fixed seed and compares the
sha256 of every file it writes with a recorded value, with the default
batches and with every block a batch of its own: same seed gives the same
bytes, however the blocks fall into batches.  The session case writes all
four of its files (time tags, pulse ledger, counts and report).

The hashes depend on numpy's `Generator` streams.  A numpy release that
changes the stream of a distribution the sampler draws from changes them
too, without any change here.  A change to the program may re-record a
hash only if it says so, and why the bytes changed, in its description.
"""

from __future__ import annotations

import hashlib

import pytest

from timebin_qkd import experiment
from timebin_qkd.cli import main

SESSION_TAGS = "6dcf0fbc57c4935ed90887341ea180d0f10ee98326f720c09a2de2a128f54944"
SESSION_LEDGER = "f30f3022ed7b7e45b12c97cd73d33fe7c7b1d9ad8c58c0301aafe30dc4a90664"
SESSION_COUNTS = "c9da03b862dd8621f22438a43d50f16e3f67abe64d63ede7ce2008c66fae0c7f"
SESSION_REPORT = "a9655104d11eba65df9bd98024c0b622a215a5b9490e9d6fe9fa854dde9e84bc"

# verb arguments, then {output file: sha256}; "out" is passed as --out.
CASES = {
    "session": (
        ["session", "--pulses", "250000", "--seed", "11",
         "--dump-tags", "{tags}", "--save-counts", "{counts}"],
        {
            "tags": SESSION_TAGS,
            "tags.ledger": SESSION_LEDGER,
            "counts": SESSION_COUNTS,
            "out": SESSION_REPORT,
        },
    ),
    "sweep-loss": (
        ["sweep-loss", "--losses", "0.45,4,8", "--pulses", "200000"],
        {"out": "ec972cf62f2aea152a8b4b0d325e91fc181fc8994edfb9c3805a0b5f3fa1349d"},
    ),
    "pump-scan": (
        ["pump-scan", "--delays=-4:12:0.25", "--pulses-per-point", "50000"],
        {"out": "1e0b7f68a386dab51980d5b39336016b7359af0438d54eb7e7eab5dde0b51719"},
    ),
    "stability": (
        ["stability", "--hours", "2"],
        {"out": "c11a35fdafca50a4ba6dd5526549142b361a2200233b9e4babf53bf26cd87a7c"},
    ),
    # the receiver policies and switch settings the cases above leave at
    # their defaults
    "session-discard-stray": (
        ["session", "--pulses", "100000", "--seed", "5", "--save-counts", "{counts}",
         "--set", "detector.stray_time_policy=discard",
         "--set", "detector.recombination_phase=0.3",
         "--set", "switch.pump_delay_ps=1.5"],
        {
            "counts": "3731f70119afd4612615528d86ef9b8e27cca73ed19befad3a2a35c6d0156c05",
            "out": "95e853e6f672cc5d951447e9de5fb0bd4d61f2c31939ffb80ef03f833af3fab3",
        },
    ),
    "session-by-polarization": (
        ["session", "--pulses", "100000", "--seed", "6", "--save-counts", "{counts}",
         "--set", "detector.stray_time_policy=by_polarization",
         "--set", "detector.double_click_policy=discard",
         "--set", "switch.theta=0.6",
         "--set", "detector.recombination_phase=0.4"],
        {
            "counts": "f0d733520adab8c4e11785fb342eb9f7caef79d30273c70739b269ce1bcae87b",
            "out": "ba60636ee048be0ed6633d78e8d4032374cff207f04379815f2e7eeccdfcaeb7",
        },
    ),
    "pump-scan-discard-stray": (
        ["pump-scan", "--delays=-2:8:0.5", "--pulses-per-point", "20000",
         "--set", "detector.stray_time_policy=discard",
         "--set", "detector.recombination_phase=-0.7"],
        {"out": "007052b644474242f131370c7d14622ee38fd342ef3c9555bd21e0cdb642d212"},
    ),
}


@pytest.mark.parametrize("batch_blocks", [None, 1], ids=["batched", "one-block-batches"])
@pytest.mark.parametrize("verb", list(CASES))
def test_cli_outputs_keep_their_bytes(tmp_path, monkeypatch, verb, batch_blocks):
    if batch_blocks is not None:
        monkeypatch.setattr(experiment, "BATCH_BLOCKS", batch_blocks)
    argv, expected = CASES[verb]
    paths = {"tags": tmp_path / "tags.csv", "counts": tmp_path / "counts.json"}
    argv = [a.format(**paths) for a in argv]
    paths["tags.ledger"] = tmp_path / "tags.csv.ledger"
    paths["out"] = tmp_path / "out.json"
    assert main([*argv, "--out", str(paths["out"])]) == 0
    got = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in expected}
    assert got == expected
