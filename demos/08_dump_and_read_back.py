"""
Dump a session's records, read them back, and count them again
===============================================================

`session --dump-tags PATH` writes the two records a session's counts come
from, both binary: the receiver's time tags at PATH (a header line, then
one 17-byte record per click: pulse, detector, whole picoseconds) and the
sender's pulse ledger at PATH.ledger (a header line, then one byte per
pulse: its intensity class, basis and bit).
Reading both back and binning each tag into the detection window around
its slot rebuilds the counts.
The rebuilt counts see every pulse sent, but not every event: timing
jitter moves a few clicks out of their 0.8 ns window, and a pulse with
clicks in both windows of its pathway is dropped, where the session
squashed it to a random bit.  So per class, basis, bit sent and basis
measured, no rebuilt count exceeds the session's.
"""

import tempfile
from pathlib import Path

import numpy as np

from timebin_qkd import (
    ExperimentConfig,
    accumulate,
    read_counts_json,
    read_pulse_ledger,
    read_time_tags,
)
from timebin_qkd.cli import main
from timebin_qkd.source import IntensityClass

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    tags_path, counts_path = tmp / "tags.bin", tmp / "counts.json"
    argv = [
        "session", "--pulses", "100000", "--seed", "8",
        "--dump-tags", str(tags_path), "--save-counts", str(counts_path),
        "--out", str(tmp / "report.json"),
    ]
    assert main(argv) == 0
    counted, _ = read_counts_json(counts_path)
    tags = read_time_tags(tags_path)
    ledger = read_pulse_ledger(f"{tags_path}.ledger")
    sizes = {path.name: path.stat().st_size for path in (tags_path, Path(f"{tags_path}.ledger"))}

rebuilt = accumulate(tags, ExperimentConfig().layout, ledger)
assert np.array_equal(rebuilt.pulses_sent, counted.pulses_sent)
assert (rebuilt.counts.sum(axis=4) <= counted.counts.sum(axis=4)).all()

print(f"time tags: {len(tags):,} clicks, {sizes['tags.bin']:,} bytes")
print(f"ledger:    {len(ledger):,} pulses from index {ledger.start_index}, "
      f"{sizes['tags.bin.ledger']:,} bytes")
print(f"{'class':>7} {'pulses':>9} {'counted':>8} {'rebuilt':>8} {'kept':>7}")
for cls in IntensityClass:
    n, k = counted.clicks(cls), rebuilt.clicks(cls)
    kept = f"{k / n:.2%}" if n else "-"
    print(f"{cls.name.lower():>7} {rebuilt.pulses(cls):>9,} {n:>8,} {k:>8,} {kept:>7}")
