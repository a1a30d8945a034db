"""Top-level experiment flows: configuration, sessions, and parameter scans.

Every flow decomposes its work into fixed-size pulse blocks.  Each block
draws from its own RNG stream, derived from the master seed and the block's
coordinates (purpose, then setting or sample, then block index).  Results
are integer count tensors summed in a fixed order, so a run is bit-for-bit
reproducible for a given seed and identical whether blocks execute
serially or on a thread pool.  Parameter sweeps reuse the same streams at
every point (common random numbers), which keeps sweep curves smooth and
makes a single-point sweep coincide exactly with a plain session.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    KeyRateReport,
    ProbabilityMatrix,
    conditional_probabilities,
    fidelities,
    qber,
    secret_key_rate,
)
from .detection import (
    ClickEvent,
    DetectorModel,
    PulseLedger,
    SessionCounts,
    WindowLayout,
    simulate_block,
)
from .errors import ConfigError, InvalidInputError
from .qubit import BB84_SETTINGS, Basis, PreparationSetting
from .source import (
    DriftModel,
    IntensityClass,
    LossBudget,
    SourceConfig,
    derived_rng,
    drift_state,
)
from .switch import SwitchModel, with_delay

BLOCK_PULSES = 1_000_000

# Stream-key purposes: keeps session, scan, and stability draws disjoint.
PURPOSE_SESSION = 0
PURPOSE_SCAN = 1
PURPOSE_STABILITY = 2

COUNTS_SCHEMA = "timebin-qkd-counts/1"
REPORT_SCHEMA = "timebin-qkd-report/1"
SWEEP_SCHEMA = "timebin-qkd-sweep/1"
SCAN_SCHEMA = "timebin-qkd-scan/1"
STABILITY_SCHEMA = "timebin-qkd-stability/1"


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified experiment.

    The detector efficiency appears both in the loss budget (for bookkeeping
    of the end-to-end link) and on the detector model (where it is applied);
    the two must agree so it is counted exactly once.
    """

    source: SourceConfig = field(default_factory=SourceConfig)
    budget: LossBudget = field(default_factory=LossBudget)
    switch: SwitchModel = field(default_factory=SwitchModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    layout: WindowLayout = field(default_factory=WindowLayout)
    drift: DriftModel = field(default_factory=DriftModel)
    seed: int = 2024
    pulses_per_setting: int = 1_000_000

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not isinstance(self.pulses_per_setting, int) or self.pulses_per_setting <= 0:
            raise ConfigError("pulses_per_setting must be a positive integer")
        if abs(self.budget.detector_db - self.detector.efficiency_db) > 1e-9:
            raise ConfigError(
                "budget.detector_db must equal detector.efficiency_db "
                f"({self.budget.detector_db} vs {self.detector.efficiency_db}); "
                "detector efficiency is applied once, at the detector"
            )


_SECTIONS = {
    "source": SourceConfig,
    "budget": LossBudget,
    "switch": SwitchModel,
    "detector": DetectorModel,
    "layout": WindowLayout,
    "drift": DriftModel,
}
_TUPLE_FIELDS = {"class_probabilities", "centers_ps"}


def _build_section(cls, payload: dict, section: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")
    kwargs = {}
    for k, v in payload.items():
        if k in _TUPLE_FIELDS:
            if not isinstance(v, (list, tuple)):
                raise ConfigError(f"'{section}.{k}' must be a list")
            v = tuple(v)
        kwargs[k] = v
    try:
        return cls(**kwargs)
    except InvalidInputError as e:
        raise ConfigError(f"invalid '{section}' section: {e}") from e


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("configuration must be a JSON object")
    known = set(_SECTIONS) | {"seed", "pulses_per_setting"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        if section in payload:
            sub = payload[section]
            if not isinstance(sub, dict):
                raise ConfigError(f"'{section}' must be a JSON object")
            kwargs[section] = _build_section(cls, sub, section)
    for scalar in ("seed", "pulses_per_setting"):
        if scalar in payload:
            kwargs[scalar] = payload[scalar]
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    out: dict = {}
    for section, _ in _SECTIONS.items():
        sub = dataclasses.asdict(getattr(config, section))
        for k, v in sub.items():
            if isinstance(v, tuple):
                sub[k] = list(v)
        out[section] = sub
    out["seed"] = config.seed
    out["pulses_per_setting"] = config.pulses_per_setting
    return out


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"configuration is not valid JSON: {e}") from e
    return config_from_dict(payload)


def apply_overrides(payload: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides like 'source.mu=0.7' to a config dict.

    Values parse as JSON when possible, else as bare strings.  Returns a
    new dict; the input is not modified.
    """
    out = json.loads(json.dumps(payload))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"bad override path: {path!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object value")
        node[keys[-1]] = value
    return out


def _blocks(n_pulses: int) -> list[tuple[int, int, int]]:
    """(block_index, start_offset, count) decomposition of a pulse train."""
    out = []
    start = 0
    b = 0
    while start < n_pulses:
        cnt = min(BLOCK_PULSES, n_pulses - start)
        out.append((b, start, cnt))
        start += cnt
        b += 1
    return out


def _require_decoy_and_vacuum(source: SourceConfig) -> None:
    """Reject, before any block runs, a source the key-rate analysis cannot use.

    The decoy bounds need a decoy class with nu > 0 and a vacuum class to
    anchor the background yield.
    """
    _, p_decoy, p_vacuum = source.class_probabilities
    if not source.nu > 0:
        raise ConfigError("source.nu must be positive: the decoy bounds need a non-empty decoy")
    if p_decoy == 0.0 or p_vacuum == 0.0:
        raise ConfigError(
            "source.class_probabilities must give the decoy and vacuum classes "
            "non-zero probability: the key rate needs both"
        )


@dataclass(frozen=True)
class _Job:
    """One pulse train of one setting: the unit the block engine splits.

    Block b of the job draws from derived_rng(seed, *key, b); start_index
    is the global index of the job's first pulse in the tag record.
    """

    key: tuple[int, ...]
    setting: PreparationSetting
    pulses: int
    budget: LossBudget
    switch: SwitchModel
    start_index: int = 0


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(
    config: ExperimentConfig,
    jobs: list[_Job],
    workers: int | None,
    *,
    collect_tags: bool = False,
) -> tuple[list[SessionCounts], list[ClickEvent] | None, PulseLedger | None]:
    """The block engine: simulate every block of every job, then merge.

    Returns the summed counts of each job in job order and, with
    collect_tags, the tags of all jobs in job order and their merged
    ledger.  Blocks run on one thread pool of at most `workers` threads,
    capped at the usable CPUs; the result does not depend on the count.
    """
    if workers is not None and workers < 1:
        raise InvalidInputError("workers must be at least 1")
    blocks = [(j, job, b) for j, job in enumerate(jobs) for b in _blocks(job.pulses)]

    def run(block):
        _, job, (b_idx, start, cnt) = block
        return simulate_block(
            job.setting,
            cnt,
            config.source,
            job.budget,
            job.switch,
            config.detector,
            derived_rng(config.seed, *job.key, b_idx),
            collect_tags=collect_tags,
            layout=config.layout,
            start_index=job.start_index + start,
        )

    threads = min(workers or 1, _usable_cpus(), len(blocks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(block) for block in blocks]

    totals = [SessionCounts.zeros() for _ in jobs]
    for (j, _, _), r in zip(blocks, results):
        totals[j] = totals[j] + (r[0] if collect_tags else r)
    if not collect_tags:
        return totals, None, None
    tags = [tag for _, block_tags, _ in results for tag in block_tags]
    ledgers = [ledger for _, _, ledger in results]
    ledger = PulseLedger(
        ledgers[0].start_index,
        np.concatenate([l.class_idx for l in ledgers]),
        np.concatenate([l.alpha for l in ledgers]),
        np.concatenate([l.bit for l in ledgers]),
    )
    return totals, tags, ledger


def _group_sums(counts: list[SessionCounts], size: int) -> list[SessionCounts]:
    """Sums of consecutive runs of `size` job counts."""
    return [
        sum(counts[k : k + size], SessionCounts.zeros()) for k in range(0, len(counts), size)
    ]


def _session_jobs(n: int, budget: LossBudget, switch: SwitchModel) -> list[_Job]:
    # Settings occupy contiguous global pulse-index ranges: setting s covers
    # [s*n, (s+1)*n), which is what the tag record and ledger index against.
    return [
        _Job((PURPOSE_SESSION, s_idx), setting, n, budget, switch, s_idx * n)
        for s_idx, setting in enumerate(BB84_SETTINGS)
    ]


def _pulses_per_setting(config: ExperimentConfig, pulses: int | None) -> int:
    n = int(pulses) if pulses is not None else config.pulses_per_setting
    if n <= 0:
        raise InvalidInputError("pulse count must be positive")
    return n


@dataclass
class SessionResult:
    """Counts plus the two standard reductions of one session."""

    config: ExperimentConfig
    counts: SessionCounts
    matrix: ProbabilityMatrix
    report: KeyRateReport
    tags: list[ClickEvent] | None = None
    ledger: PulseLedger | None = None


def run_session(
    config: ExperimentConfig,
    *,
    pulses: int | None = None,
    workers: int | None = None,
    collect_tags: bool = False,
) -> SessionResult:
    """Simulate all four preparation settings and reduce to matrix + report.

    `pulses` overrides pulses_per_setting.  With collect_tags the result
    also holds the time tags and the pulse ledger of the whole session.
    """
    n = _pulses_per_setting(config, pulses)
    _require_decoy_and_vacuum(config.source)
    counts, tags, ledger = _run_jobs(
        config, _session_jobs(n, config.budget, config.switch), workers, collect_tags=collect_tags
    )
    total = sum(counts, SessionCounts.zeros())
    matrix = ProbabilityMatrix.from_counts(total)
    report = secret_key_rate(total, config.source)
    return SessionResult(config, total, matrix, report, tags, ledger)


@dataclass
class LossSweepResult:
    """Key-rate curve against channel loss, common random numbers per point."""

    channel_db: np.ndarray
    rates_bps: np.ndarray
    reports: list[KeyRateReport]


def run_loss_sweep(
    config: ExperimentConfig,
    channel_losses_db,
    *,
    pulses: int | None = None,
    workers: int | None = None,
) -> LossSweepResult:
    losses = np.asarray(list(channel_losses_db), dtype=float)
    if losses.size == 0:
        raise InvalidInputError("need at least one channel loss value")
    if not np.all(np.isfinite(losses)) or np.any(losses < 0):
        raise InvalidInputError("channel losses must be finite and non-negative")
    losses = np.sort(losses)

    n = _pulses_per_setting(config, pulses)
    _require_decoy_and_vacuum(config.source)
    jobs = [
        job
        for loss in losses
        for job in _session_jobs(
            n, replace(config.budget, channel_db=float(loss)), config.switch
        )
    ]
    counts, _, _ = _run_jobs(config, jobs, workers)
    reports = [
        secret_key_rate(total, config.source)
        for total in _group_sums(counts, len(BB84_SETTINGS))
    ]
    rates = np.array([r.r_bps for r in reports])
    return LossSweepResult(losses, rates, reports)


@dataclass
class PumpScanResult:
    """Time-basis readout fidelity of both slots against pump delay."""

    delays_ps: np.ndarray
    fidelity_t0: np.ndarray
    fidelity_t1: np.ndarray


def run_pump_delay_scan(
    config: ExperimentConfig,
    delays_ps,
    *,
    pulses_per_point: int = 200_000,
    workers: int | None = None,
) -> PumpScanResult:
    """Scan the pump arrival time and read out both time slots.

    Only the two time-basis preparations are simulated; the reported
    fidelities condition on the time pathway.  Every delay reuses the same
    RNG streams, so the curves vary smoothly with delay.
    """
    delays = np.asarray(list(delays_ps), dtype=float)
    if delays.size == 0:
        raise InvalidInputError("need at least one pump delay")
    if not np.all(np.isfinite(delays)):
        raise InvalidInputError("pump delays must be finite")
    if pulses_per_point <= 0:
        raise InvalidInputError("pulses_per_point must be positive")

    time_settings = [s for s in BB84_SETTINGS if s.basis == Basis.TIME]
    jobs = [
        _Job((PURPOSE_SCAN, s_idx), setting, pulses_per_point, config.budget, sw)
        for sw in (with_delay(config.switch, float(delay)) for delay in delays)
        for s_idx, setting in enumerate(time_settings)
    ]
    counts, _, _ = _run_jobs(config, jobs, workers)
    totals = _group_sums(counts, len(time_settings))
    f0, f1 = (
        np.array([
            conditional_probabilities(total, IntensityClass.SIGNAL, Basis.TIME, bit, Basis.TIME)[bit]
            for total in totals
        ])
        for bit in (0, 1)
    )
    return PumpScanResult(delays, f0, f1)


def _level_crossings(x: np.ndarray, y: np.ndarray, level: float) -> list[float]:
    hits = []
    for k in range(len(x) - 1):
        a, b = y[k] - level, y[k + 1] - level
        if a == 0.0:
            hits.append(float(x[k]))
        elif a * b < 0.0:
            hits.append(float(x[k] + (x[k + 1] - x[k]) * a / (a - b)))
    if len(y) > 1 and y[-1] == level:
        hits.append(float(x[-1]))
    return hits


def _feature_center(x: np.ndarray, y: np.ndarray) -> float:
    lo, hi = float(np.min(y)), float(np.max(y))
    # a curve that never leaves its noise band has no feature to center
    if hi - lo < 0.1:
        raise InvalidInputError(
            "no slot feature in the scan range: fidelity contrast below 0.1"
        )
    level = 0.5 * (lo + hi)
    hits = _level_crossings(x, y, level)
    if len(hits) < 2:
        raise InvalidInputError(
            "cannot locate feature edges: need two half-depth crossings in the scan range"
        )
    return 0.5 * (hits[0] + hits[-1])


def extract_separation(scan: PumpScanResult) -> float:
    """Bin separation from the scan: distance between the two slot features.

    The early-slot curve shows a high plateau while the pump overlaps that
    slot; the late-slot curve shows a dip displaced by one bin separation.
    Each feature center is the midpoint of its half-depth edge crossings.
    """
    c0 = _feature_center(scan.delays_ps, scan.fidelity_t0)
    c1 = _feature_center(scan.delays_ps, scan.fidelity_t1)
    return abs(c1 - c0)


def plateau_mean(scan: PumpScanResult, lo_ps: float, hi_ps: float) -> float:
    """Mean early-slot fidelity over a delay interval."""
    mask = (scan.delays_ps >= lo_ps) & (scan.delays_ps <= hi_ps)
    if not np.any(mask):
        raise InvalidInputError("no scan points inside the requested interval")
    return float(np.mean(scan.fidelity_t0[mask]))


@dataclass
class StabilityResult:
    """Time series of a long session under slow drift, plus pooled totals."""

    times_h: np.ndarray
    fidelity_series: dict[tuple[Basis, int], np.ndarray]
    qber_series: np.ndarray
    counts: SessionCounts
    report: KeyRateReport
    mean_fidelities: dict[tuple[Basis, int], float]
    qber_aggregate: float


def run_stability(
    config: ExperimentConfig,
    *,
    hours: float = 28.0,
    samples_per_hour: int = 2,
    pulses_per_sample: int = 400_000,
    workers: int | None = None,
) -> StabilityResult:
    """Rerun the four settings on a time grid with drifting switch settings.

    Pump power drift scales the peak nonlinear phase; polarization drift
    offsets the switch interaction angle.  Both follow the configured
    bounded random walks.  Per-sample fidelities and signal QBER form the
    series; pooled counts give the aggregate report.
    """
    if not (math.isfinite(hours) and hours > 0):
        raise InvalidInputError("hours must be positive")
    if samples_per_hour <= 0 or pulses_per_sample <= 0:
        raise InvalidInputError("samples_per_hour and pulses_per_sample must be positive")
    _require_decoy_and_vacuum(config.source)

    n_samples = int(round(hours * samples_per_hour)) + 1
    times = np.linspace(0.0, hours, n_samples)

    jobs = []
    for k, t in enumerate(times):
        dpow, dtheta = drift_state(config.drift, float(t))
        theta = min(max(config.switch.theta + dtheta, 0.0), math.pi / 2)
        sw = replace(
            config.switch,
            theta=theta,
            delta_phi_peak=config.switch.delta_phi_peak * (1.0 + dpow),
        )
        jobs += [
            _Job((PURPOSE_STABILITY, k, s_idx), setting, pulses_per_sample, config.budget, sw)
            for s_idx, setting in enumerate(BB84_SETTINGS)
        ]
    counts, _, _ = _run_jobs(config, jobs, workers)
    per_sample = _group_sums(counts, len(BB84_SETTINGS))

    total = sum(per_sample, SessionCounts.zeros())
    per_fidelity = [fidelities(sample) for sample in per_sample]
    means = fidelities(total)
    return StabilityResult(
        times_h=times,
        fidelity_series={key: np.array([f[key] for f in per_fidelity]) for key in means},
        qber_series=np.array([qber(sample) for sample in per_sample]),
        counts=total,
        report=secret_key_rate(total, config.source),
        mean_fidelities=means,
        qber_aggregate=qber(total),
    )


def write_counts_json(path, counts: SessionCounts, source: SourceConfig) -> None:
    payload = {
        "schema": COUNTS_SCHEMA,
        "mu": source.mu,
        "nu": source.nu,
        "rep_rate_hz": source.rep_rate_hz,
        **counts.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def read_counts_json(path) -> tuple[SessionCounts, SourceConfig]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise InvalidInputError(f"counts file is not valid JSON: {e}") from e
    if not isinstance(payload, dict) or payload.get("schema") != COUNTS_SCHEMA:
        raise InvalidInputError(f"counts file must declare schema {COUNTS_SCHEMA!r}")
    counts = SessionCounts.from_dict(payload)
    try:
        source = SourceConfig(
            mu=float(payload["mu"]),
            nu=float(payload["nu"]),
            rep_rate_hz=float(payload["rep_rate_hz"]),
        )
    except KeyError as e:
        raise InvalidInputError(f"counts file missing field: {e}") from e
    return counts, source


def report_payload(report: KeyRateReport) -> dict:
    return {"schema": REPORT_SCHEMA, **report.to_dict()}


def matrix_payload(matrix: ProbabilityMatrix) -> dict:
    from .analysis import SETTING_LABELS

    return {
        "labels": list(SETTING_LABELS),
        "rows": [[float(v) for v in row] for row in matrix.values],
    }


def sweep_payload(result: LossSweepResult) -> dict:
    return {
        "schema": SWEEP_SCHEMA,
        "channel_db": result.channel_db.tolist(),
        "R_bps": result.rates_bps.tolist(),
        "reports": [r.to_dict() for r in result.reports],
    }


def scan_payload(result: PumpScanResult) -> dict:
    payload = {
        "schema": SCAN_SCHEMA,
        "pump_delay_ps": result.delays_ps.tolist(),
        "fidelity_t0": result.fidelity_t0.tolist(),
        "fidelity_t1": result.fidelity_t1.tolist(),
    }
    try:
        payload["separation_ps"] = extract_separation(result)
    except InvalidInputError:
        payload["separation_ps"] = None
    return payload


def stability_payload(result: StabilityResult) -> dict:
    series = {
        f"fidelity_{basis.name.lower()}{bit}": result.fidelity_series[(basis, bit)].tolist()
        for basis, bit in result.fidelity_series
    }
    means = {
        f"{basis.name.lower()}{bit}": result.mean_fidelities[(basis, bit)]
        for basis, bit in result.mean_fidelities
    }
    return {
        "schema": STABILITY_SCHEMA,
        "times_h": result.times_h.tolist(),
        **series,
        "qber_series": result.qber_series.tolist(),
        "mean_fidelities": means,
        "E_mu": result.qber_aggregate,
        "report": result.report.to_dict(),
    }


def _csv_lines(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v!r}" if isinstance(v, float) else "" if v is None else str(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def sweep_csv(result: LossSweepResult) -> str:
    rows = [
        (float(db), float(r.r_bps), r.q_mu, r.e_mu)
        for db, r in zip(result.channel_db, result.reports)
    ]
    return _csv_lines(["channel_db", "R_bps", "Q_mu", "E_mu"], rows)


def scan_csv(result: PumpScanResult) -> str:
    rows = [
        (float(d), float(a), float(b))
        for d, a, b in zip(result.delays_ps, result.fidelity_t0, result.fidelity_t1)
    ]
    return _csv_lines(["pump_delay_ps", "fidelity_t0", "fidelity_t1"], rows)


def stability_csv(result: StabilityResult) -> str:
    keys = list(result.fidelity_series)
    header = ["time_h"] + [f"fidelity_{b.name.lower()}{i}" for b, i in keys] + ["qber"]
    rows = []
    for k, t in enumerate(result.times_h):
        row = [float(t)]
        row += [float(result.fidelity_series[key][k]) for key in keys]
        row.append(float(result.qber_series[k]))
        rows.append(tuple(row))
    return _csv_lines(header, rows)


def report_csv(report: KeyRateReport) -> str:
    d = report.to_dict()
    rows = [(k, v if not isinstance(v, list) else ";".join(v)) for k, v in d.items()]
    return _csv_lines(["quantity", "value"], rows)
