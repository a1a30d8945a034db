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

SESSION_TAGS = "3b82c55c5a92d7512c865de944427e44c5256a149cf57facf6a5959e5f90f052"
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
