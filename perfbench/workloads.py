"""The benchmark's workloads, driven through the public API of `timebin_qkd`.

Each workload builds its inputs from the seed alone and finishes its
set-up (config plus one small warm-up call of the flow) in `__init__`.
`call()` runs the flow once at the stated size and `check()` returns the
problems found in that call's outputs.  Calls go through module attributes
(`experiment.run_session`, `cli.main`, ...) so that the traced run's
wrappers see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from timebin_qkd import cli, detection, experiment
from timebin_qkd.errors import InvalidInputError

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
WORKERS = min(2, NPROC)

# Criterion 3's delay grid: -4 to 12 ps in 0.25 ps steps, 65 points.
DELAYS_PS = np.arange(-4.0, 12.0 + 1e-9, 0.25)
WARMUP_PULSES = 20_000


@dataclass(frozen=True)
class Sizes:
    session_pulses: int  # per setting, 4 settings
    scan_pulses_per_point: int  # per time-basis setting, 2 settings x 65 delays
    dump_pulses: int  # per setting, 4 settings


FULL = Sizes(session_pulses=4_000_000, scan_pulses_per_point=50_000, dump_pulses=250_000)
TOY = Sizes(session_pulses=200_000, scan_pulses_per_point=5_000, dump_pulses=20_000)


class Session:
    """run_session with the default config, 4 settings, WORKERS threads."""

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.config = experiment.ExperimentConfig(seed=seed)
        self.pulses = sizes.session_pulses
        self.pulses_per_call = 4 * self.pulses
        self.reference: dict | None = None
        experiment.run_session(self.config, pulses=WARMUP_PULSES, workers=WORKERS)

    def call(self):
        return experiment.run_session(self.config, pulses=self.pulses, workers=WORKERS)

    def check(self, res) -> list[str]:
        problems = []
        r_mbps = res.report.r_bps / 1e6
        if not 0.272 <= r_mbps <= 0.408:
            problems.append(f"R = {r_mbps} Mbps outside 0.272..0.408")
        if not 0.005 < res.report.e_mu < 0.011:
            problems.append(f"E_mu = {res.report.e_mu} outside (0.005, 0.011)")
        counts = res.counts.to_dict()
        if self.reference is None:
            self.reference = counts
        elif counts != self.reference:
            problems.append("counts differ from the first call with the same seed")
        return problems


class PumpScan:
    """run_pump_delay_scan over criterion 3's grid, WORKERS threads."""

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.config = experiment.ExperimentConfig(seed=seed)
        self.pulses = sizes.scan_pulses_per_point
        self.pulses_per_call = len(DELAYS_PS) * 2 * self.pulses
        experiment.run_pump_delay_scan(
            self.config, DELAYS_PS[:2], pulses_per_point=WARMUP_PULSES, workers=WORKERS
        )

    def call(self):
        return experiment.run_pump_delay_scan(
            self.config, DELAYS_PS, pulses_per_point=self.pulses, workers=WORKERS
        )

    def check(self, scan) -> list[str]:
        # No plateau floor: at this size it sits inside binomial noise.
        try:
            sep = experiment.extract_separation(scan)
        except InvalidInputError as e:
            return [f"no separation: {e}"]
        return [] if abs(sep - 4.5) <= 0.1 else [f"separation {sep} ps outside 4.5 +/- 0.1"]


@dataclass
class Dump:
    exit_code: int
    ledger_rows: int = 0
    counts: detection.SessionCounts | None = None


class TagDump:
    """The CLI session verb with tag and counts dumps, then the files read back."""

    def __init__(self, seed: int, sizes: Sizes, scratch: Path) -> None:
        self.seed = seed
        self.pulses = sizes.dump_pulses
        self.pulses_per_call = 4 * self.pulses
        self.tags_path = scratch / "tags.csv"
        self.counts_path = scratch / "counts.json"
        self.report_path = scratch / "report.json"
        self.layout = experiment.ExperimentConfig().layout
        self._dump(WARMUP_PULSES)

    def _dump(self, pulses: int) -> Dump:
        code = cli.main([
            "session",
            "--pulses", str(pulses),
            "--seed", str(self.seed),
            "--dump-tags", str(self.tags_path),
            "--save-counts", str(self.counts_path),
            "--out", str(self.report_path),
        ])
        if code != 0:
            return Dump(code)
        tags = detection.read_time_tags(self.tags_path)
        ledger = detection.read_pulse_ledger(f"{self.tags_path}.ledger")
        return Dump(code, len(ledger), detection.accumulate(tags, self.layout, ledger))

    def call(self) -> Dump:
        return self._dump(self.pulses)

    def check(self, dump: Dump) -> list[str]:
        if dump.exit_code != 0:
            return [f"cli exited {dump.exit_code}"]
        problems = []
        if dump.ledger_rows != self.pulses_per_call:
            problems.append(f"ledger has {dump.ledger_rows} rows, expected {self.pulses_per_call}")
        saved, _ = experiment.read_counts_json(self.counts_path)
        if not np.array_equal(dump.counts.pulses_sent, saved.pulses_sent):
            problems.append("accumulate() pulses_sent differs from the saved counts")
        # Removed here, outside the timed call, so a later call cannot read stale files.
        for path in (self.tags_path, Path(f"{self.tags_path}.ledger"), self.counts_path, self.report_path):
            path.unlink()
        return problems


WORKLOADS = {"session": Session, "pump_scan": PumpScan, "tag_dump": TagDump}
