"""Golden bytes: the determinism contract pinned as sha256 of CLI outputs.

Each case runs one CLI verb in-process at a fixed seed and compares the
sha256 of every file it writes with a recorded value, serially and with
`--workers 2`: same seed gives the same bytes, and parallel equals serial.
The session case writes all four of its files (time tags, pulse ledger,
counts and report).

The hashes depend on numpy's `Generator` streams.  A numpy release that
changes the stream of a distribution the sampler draws from changes them
too, without any change here.  A change to the program may re-record a
hash only if it says so, and why the bytes changed, in its description.
"""

from __future__ import annotations

import hashlib

import pytest

from timebin_qkd.cli import main

SESSION_TAGS = "261c851eab2726c7cc4907950e1478315f72b0598100cfb80f291c018522b7e1"
SESSION_LEDGER = "49160d8c08c7845d3929e97d6596427e65041d4911ad2120e0440fc91507a3e7"
SESSION_COUNTS = "131c15e1614de3b8c8cb1967c45ab48a2e2839c9810c6fe94aa8022e3bf473ab"
SESSION_REPORT = "bf4f8a2387e970c7a139d9c4c157dd9de7b565360dfb4a412d8042a9039dfd46"

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
        {"out": "dbf51898126f73329e8b0bb3b927933476860bcb7e4ea2b9638270f9134c9c26"},
    ),
    "pump-scan": (
        ["pump-scan", "--delays=-4:12:0.25", "--pulses-per-point", "50000"],
        {"out": "e28935375b6855b5329ea0c0e3cefa2271d4c35b42807b8d7931511c845a1985"},
    ),
    "stability": (
        ["stability", "--hours", "2"],
        {"out": "87712dce339fa9fb2d99c0e119e9a0c73a5e8b3396ae208ed32a8e79ad7df5d9"},
    ),
    # the receiver policies and switch settings the cases above leave at
    # their defaults
    "session-discard-stray": (
        ["session", "--pulses", "100000", "--seed", "5", "--save-counts", "{counts}",
         "--set", "detector.stray_time_policy=discard",
         "--set", "detector.recombination_phase=0.3",
         "--set", "switch.pump_delay_ps=1.5"],
        {
            "counts": "a9af57ad4cc6438f14a17f2270367e138205a179c1bf44575d2f805944327f49",
            "out": "782174e70658423f019808407908561e340adf7b98b8f26618c13674f9e4dbc4",
        },
    ),
    "session-by-polarization": (
        ["session", "--pulses", "100000", "--seed", "6", "--save-counts", "{counts}",
         "--set", "detector.stray_time_policy=by_polarization",
         "--set", "detector.double_click_policy=discard",
         "--set", "switch.theta=0.6",
         "--set", "switch.bin_phase_offset=0.4"],
        {
            "counts": "072b3276f7cb144409f1ce5fe8bcc0030562cbb839fd0eecaf28818627b04284",
            "out": "5572b7067583ba932b0fdc79144f7dd478a11f59ead5ddf0743f79ee9fcdb08b",
        },
    ),
    "pump-scan-discard-stray": (
        ["pump-scan", "--delays=-2:8:0.5", "--pulses-per-point", "20000",
         "--set", "detector.stray_time_policy=discard",
         "--set", "detector.recombination_phase=-0.7"],
        {"out": "5a314b45ff667c3b9410aad164611324785caa1997746834e91b0a40c16c73ff"},
    ),
}


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]], ids=["serial", "workers2"])
@pytest.mark.parametrize("verb", list(CASES))
def test_cli_outputs_keep_their_bytes(tmp_path, verb, workers):
    argv, expected = CASES[verb]
    paths = {"tags": tmp_path / "tags.csv", "counts": tmp_path / "counts.json"}
    argv = [a.format(**paths) for a in argv]
    paths["tags.ledger"] = tmp_path / "tags.csv.ledger"
    paths["out"] = tmp_path / "out.json"
    assert main([*argv, "--out", str(paths["out"]), *workers]) == 0
    got = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in expected}
    assert got == expected
