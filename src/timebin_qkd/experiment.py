"""Top-level experiment flows: configuration, sessions, and parameter scans.

Every flow hands the block engine its points, each a stream key, a loss
budget and a switch, and the settings to run at every point.  The engine
splits each (point, setting) train into fixed-size pulse blocks; each block
draws from its own RNG stream, derived from the master seed and the block's
coordinates (the point's key, then setting index, then block index).  Results
are integer count tensors summed in a fixed order, so a run is bit-for-bit
reproducible for a given seed, however the blocks fall into batches.
Every batch runs on the calling thread.  Parameter sweeps reuse the same
streams at every point (common random numbers), which keeps sweep curves
smooth and makes a single-point sweep coincide exactly with a plain
session.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import PCG64, Generator

from .analysis import (
    MAX_MU,
    SETTING_LABELS,
    KeyRateReport,
    conditional_probabilities,
    fidelities,
    probability_matrix,
    qber,
    secret_key_rate,
)
from .detection import (
    Block,
    DetectorModel,
    PulseLedger,
    SessionCounts,
    TimeTags,
    WindowLayout,
    dark_prob_per_window,
    simulate_block,  # noqa: F401  (perfbench/spans.py wraps it at this name)
    simulate_blocks,
)
from .errors import ConfigError, InvalidInputError, _count, _real
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

# Most blocks one batch holds.  Consecutive blocks that together hold at
# most BLOCK_PULSES pulses run as one batch; the cap bounds a batch's
# memory when the blocks are tiny.
BATCH_BLOCKS = 16

# Upper bound on the points of a grid: the samples of a stability run, and
# the values one --losses or --delays argument may expand to.
MAX_VALUES = 100_000

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

    The detector efficiency is budget.detector_db, one term of the
    end-to-end loss budget; the detector model holds the rest of the
    measurement chain.  The window width is layout.width_ps alone: it sets
    where a tag counts and, with the dark rate, the dark probability of a
    window.  The relative phase of the interfering arms is
    detector.recombination_phase alone.  A config describes the setup,
    not a run's size: each flow takes its pulse count as a keyword.
    """

    source: SourceConfig = field(default_factory=SourceConfig)
    budget: LossBudget = field(default_factory=LossBudget)
    switch: SwitchModel = field(default_factory=SwitchModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    layout: WindowLayout = field(default_factory=WindowLayout)
    drift: DriftModel = field(default_factory=DriftModel)
    seed: int = 2024

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "seed", _count(self.seed, "seed", least=0))
            dark_prob_per_window(self.detector, self.layout)
        except InvalidInputError as e:
            raise ConfigError(str(e)) from e


_SECTIONS = {
    "source": SourceConfig,
    "budget": LossBudget,
    "switch": SwitchModel,
    "detector": DetectorModel,
    "layout": WindowLayout,
    "drift": DriftModel,
}


def _number(value, where: str) -> float:
    # a JSON number only: a string, null, list or boolean is not cast
    if type(value) not in (int, float):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as e:
        raise ConfigError(f"'{where}' out of range: {e}") from e


def _integer(value, where: str) -> int:
    if type(value) is not int:
        raise ConfigError(f"'{where}' must be an integer, got {value!r}")
    return value


def _build_section(cls, payload: dict, section: str):
    """One config section from its parsed JSON, each value of its field's type.

    A float field takes a JSON number, an int field a JSON integer, a
    string field a string and a tuple field a list of numbers; a boolean
    is none of these.  The dataclass then checks the values' ranges.
    """
    kinds = typing.get_type_hints(cls)
    unknown = set(payload) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")
    kwargs = {}
    for k, v in payload.items():
        where = f"{section}.{k}"
        kind = kinds[k]
        if kind is float:
            v = _number(v, where)
        elif kind is int:
            v = _integer(v, where)
        elif kind is str:
            if type(v) is not str:
                raise ConfigError(f"'{where}' must be a string, got {v!r}")
        else:  # a tuple of floats
            if not isinstance(v, (list, tuple)):
                raise ConfigError(f"'{where}' must be a list")
            v = tuple(_number(x, where) for x in v)
        kwargs[k] = v
    try:
        return cls(**kwargs)
    except InvalidInputError as e:
        raise ConfigError(f"invalid '{section}' section: {e}") from e


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("configuration must be a JSON object")
    known = set(_SECTIONS) | {"seed"}
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
    if "seed" in payload:
        kwargs["seed"] = _integer(payload["seed"], "seed")
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


def _require_decoy_and_vacuum(source: SourceConfig) -> None:
    """Reject, before any block runs, a source the key-rate analysis cannot use.

    The decoy bounds need a decoy class with nu > 0, a vacuum class to
    anchor the background yield, and a mu of at most MAX_MU.
    """
    _, p_decoy, p_vacuum = source.class_probabilities
    if source.mu > MAX_MU:
        raise ConfigError(f"source.mu must be at most {MAX_MU}, where e**mu is still a float")
    if not source.nu > 0:
        raise ConfigError("source.nu must be positive: the decoy bounds need a non-empty decoy")
    if p_decoy == 0.0 or p_vacuum == 0.0:
        raise ConfigError(
            "source.class_probabilities must give the decoy and vacuum classes "
            "non-zero probability: the key rate needs both"
        )


def _run_points(
    config: ExperimentConfig,
    settings: tuple[PreparationSetting, ...],
    points: Iterable[tuple[tuple[int, ...], LossBudget, SwitchModel]],
    pulses: int,
    sink: Callable[[TimeTags, PulseLedger], None] | None = None,
) -> Iterator[SessionCounts]:
    """The block engine: simulate every setting at every point, reduced in order.

    `points` yields (key, budget, switch) triples.  At each point every
    setting runs a train of `pulses` pulses, an integer of at least 1, cut
    into blocks of BLOCK_PULSES.  Block b of setting s draws from
    derived_rng(config.seed, *key, s, b), and its first pulse has the
    index s * pulses + b * BLOCK_PULSES in the tag record.  Each block gets
    a new generator on its stream's seed sequence.  When every train is one
    block, the engine derives each stream once for a run of consecutive
    points with the same key (a sweep or a scan reuses its key for common
    random numbers), so it holds at most one sequence per setting; a
    longer train derives its streams block by block, at a cost its
    full-size blocks dwarf, and keeps none.  The engine
    yields the summed counts of each point in order, as soon as its last
    block is in; with a sink it also draws each block's tags and ledger as
    the reduce reaches the block and hands them to sink(tags, ledger), in
    point, setting and block order.  It keeps nothing else, so its memory
    does not grow with the run.

    Consecutive blocks that together hold at most BLOCK_PULSES pulses, and
    at most BATCH_BLOCKS of them, run as one batch through simulate_blocks
    on the calling thread, and each batch is reduced, and its records
    dropped, before the next runs:
    each block still draws from its own stream, and the stages without
    draws run once per batch.  A full-size block is a batch of its own.
    The result does not depend on how the blocks fall into batches.
    """
    starts = range(0, pulses, BLOCK_PULSES)
    last = (len(settings) - 1, len(starts) - 1)

    def batches():
        # each block as its stream's seed sequence, its Block fields but the
        # generator, and whether it ends its point
        batch, batch_pulses = [], 0
        streams, streams_key = {}, None
        for key, budget, switch in points:
            if key != streams_key:
                streams, streams_key = {}, key
            for s, setting in enumerate(settings):
                for b, start in enumerate(starts):
                    cnt = min(BLOCK_PULSES, pulses - start)
                    if batch and (batch_pulses + cnt > BLOCK_PULSES or len(batch) == BATCH_BLOCKS):
                        yield batch
                        batch, batch_pulses = [], 0
                    seq = streams.get((s, b))
                    if seq is None:
                        seq = derived_rng(config.seed, *key, s, b).bit_generator.seed_seq
                        if len(starts) == 1:
                            streams[s, b] = seq
                    batch.append((
                        seq, setting, cnt, budget, switch, s * pulses + start, (s, b) == last,
                    ))
                    batch_pulses += cnt
        if batch:
            yield batch

    counts = np.zeros((3, 2, 2, 2, 2), dtype=np.int64)
    sent = np.zeros((3, 2, 2), dtype=np.int64)
    for batch in batches():
        results = simulate_blocks(
            [
                Block(setting, cnt, budget, switch, Generator(PCG64(seq)), start)
                for seq, setting, cnt, budget, switch, start, _ in batch
            ],
            config.source,
            config.detector,
            config.layout,
        )
        for (*_, ends_point), (block_counts, block_sent, record) in zip(batch, results):
            if sink is not None:
                sink(*record())
            counts += block_counts
            sent += block_sent
            if ends_point:
                yield SessionCounts(counts, sent)
                counts, sent = np.zeros_like(counts), np.zeros_like(sent)
        # each record holds its batch's event arrays: none outlives the reduce
        del results, record


@dataclass
class SessionResult:
    """Counts plus the two standard reductions of one session.

    matrix is the probability_matrix of the counts, or None when a
    preparation recorded no signal-class event.
    """

    counts: SessionCounts
    matrix: np.ndarray | None
    report: KeyRateReport


def run_session(
    config: ExperimentConfig,
    *,
    pulses: int = 1_000_000,
    workers: int | None = None,
    sink: Callable[[TimeTags, PulseLedger], None] | None = None,
) -> SessionResult:
    """Simulate all four preparation settings and reduce to matrix + report.

    Each setting runs `pulses` pulses, an integer of at least 1.  With a
    sink, each block's time tags and pulse ledger go to sink(tags, ledger)
    as the block is reduced, in pulse-index order.

    `workers` is accepted for compatibility and has no effect: None or an
    integer of at least 1, and every batch runs on the calling thread.
    """
    pulses = _count(pulses, "pulses")
    _require_decoy_and_vacuum(config.source)
    if workers is not None:
        _count(workers, "workers")
    point = ((PURPOSE_SESSION,), config.budget, config.switch)
    (total,) = _run_points(config, BB84_SETTINGS, [point], pulses, sink)
    signal_rows = total.counts[IntensityClass.SIGNAL].sum(axis=(2, 3))
    matrix = probability_matrix(total) if signal_rows.all() else None
    return SessionResult(total, matrix, secret_key_rate(total, config.source))


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
    pulses: int = 1_000_000,
    workers: int | None = None,
) -> LossSweepResult:
    """Key rate at each channel loss, sorted, on the same streams at every loss.

    Each setting runs `pulses` pulses at every loss, an integer of at
    least 1.

    `workers` is accepted for compatibility and has no effect: None or an
    integer of at least 1, and every batch runs on the calling thread.
    """
    losses = np.array([_real(v, "channel loss") for v in channel_losses_db], dtype=float)
    if losses.size == 0:
        raise InvalidInputError("need at least one channel loss value")
    if not np.all(np.isfinite(losses)) or np.any(losses < 0):
        raise InvalidInputError("channel losses must be finite and non-negative")
    losses = np.sort(losses)

    pulses = _count(pulses, "pulses")
    _require_decoy_and_vacuum(config.source)
    if workers is not None:
        _count(workers, "workers")
    points = (
        ((PURPOSE_SESSION,), replace(config.budget, channel_db=float(loss)), config.switch)
        for loss in losses
    )
    reports = [
        secret_key_rate(total, config.source)
        for total in _run_points(config, BB84_SETTINGS, points, pulses)
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
    fidelities condition on the time pathway; a point without such events
    has NaN fidelity.  Every delay reuses the same RNG streams, so the
    curves vary smoothly with delay.

    `workers` is accepted for compatibility and has no effect: None or an
    integer of at least 1, and every batch runs on the calling thread.
    """
    delays = np.array([_real(v, "pump delay") for v in delays_ps], dtype=float)
    if delays.size == 0:
        raise InvalidInputError("need at least one pump delay")
    if not np.all(np.isfinite(delays)):
        raise InvalidInputError("pump delays must be finite")
    pulses_per_point = _count(pulses_per_point, "pulses_per_point")
    if workers is not None:
        _count(workers, "workers")

    time_settings = tuple(s for s in BB84_SETTINGS if s.basis == Basis.TIME)
    points = (
        ((PURPOSE_SCAN,), config.budget, with_delay(config.switch, float(delay)))
        for delay in delays
    )
    totals = _run_points(config, time_settings, points, pulses_per_point)
    fidelity = np.full((2, len(delays)), math.nan)
    for k, total in enumerate(totals):
        for bit in (0, 1):
            if total.counts[IntensityClass.SIGNAL, Basis.TIME, bit, Basis.TIME].any():
                fidelity[bit, k] = conditional_probabilities(
                    total, IntensityClass.SIGNAL, Basis.TIME, bit, Basis.TIME
                )[bit]
    return PumpScanResult(delays, *fidelity)


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
    x, y = x[np.isfinite(y)], y[np.isfinite(y)]
    lo, hi = (float(np.min(y)), float(np.max(y))) if len(y) else (0.0, 0.0)
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
    Each feature center is the midpoint of its half-depth edge crossings;
    points without events (NaN) are left out.
    """
    c0 = _feature_center(scan.delays_ps, scan.fidelity_t0)
    c1 = _feature_center(scan.delays_ps, scan.fidelity_t1)
    return abs(c1 - c0)


def plateau_mean(scan: PumpScanResult, lo_ps: float, hi_ps: float) -> float:
    """Mean early-slot fidelity over the points of a delay interval that have events."""
    mask = (scan.delays_ps >= lo_ps) & (scan.delays_ps <= hi_ps) & np.isfinite(scan.fidelity_t0)
    if not np.any(mask):
        raise InvalidInputError("no scan points with events inside the requested interval")
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


def _qber_or_nan(counts: SessionCounts) -> float:
    return qber(counts) if counts.matched_clicks(IntensityClass.SIGNAL) else math.nan


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
    series, NaN where a sample has no matched-basis event for them; pooled
    counts give the aggregate report.  The grid has round(hours *
    samples_per_hour) + 1 samples, at most MAX_VALUES; samples_per_hour
    is an integer of at least 1.

    `workers` is accepted for compatibility and has no effect: None or an
    integer of at least 1, and every batch runs on the calling thread.
    """
    hours = _real(hours, "hours")
    if not (math.isfinite(hours) and hours > 0):
        raise InvalidInputError("hours must be positive")
    samples_per_hour = _count(samples_per_hour, "samples_per_hour")
    pulses_per_sample = _count(pulses_per_sample, "pulses_per_sample")
    # counted before the grid is built; an infinite product is never rounded
    grid = hours * samples_per_hour
    if not grid <= MAX_VALUES or round(grid) + 1 > MAX_VALUES:
        raise InvalidInputError(f"stability samples exceed the limit of {MAX_VALUES}")
    _require_decoy_and_vacuum(config.source)
    if workers is not None:
        _count(workers, "workers")

    n_samples = int(round(grid)) + 1
    times = np.linspace(0.0, hours, n_samples)

    def drifted(dpow: float, dtheta: float) -> SwitchModel:
        return replace(
            config.switch,
            theta=min(max(config.switch.theta + dtheta, 0.0), math.pi / 2),
            delta_phi_peak=config.switch.delta_phi_peak * (1.0 + dpow),
        )

    samples = (
        ((PURPOSE_STABILITY, k), config.budget, drifted(*drift))
        for k, drift in enumerate(drift_state(config.drift, times))
    )
    per_sample = list(_run_points(config, BB84_SETTINGS, samples, pulses_per_sample))

    total = sum(per_sample, SessionCounts.zeros())
    per_fidelity = [fidelities(sample) for sample in per_sample]
    means = fidelities(total)
    return StabilityResult(
        times_h=times,
        fidelity_series={key: np.array([f[key] for f in per_fidelity]) for key in means},
        qber_series=np.array([_qber_or_nan(sample) for sample in per_sample]),
        counts=total,
        report=secret_key_rate(total, config.source),
        mean_fidelities=means,
        qber_aggregate=_qber_or_nan(total),
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
    fields = {}
    for name in ("mu", "nu", "rep_rate_hz"):
        if name not in payload:
            raise InvalidInputError(f"counts file missing field: {name!r}")
        value = payload[name]
        # a JSON number only: a string, null, list or boolean is not cast
        if type(value) not in (int, float):
            raise InvalidInputError(f"counts field {name!r} must be a number, got {value!r}")
        try:
            fields[name] = float(value)
        except OverflowError as e:
            raise InvalidInputError(f"counts field {name!r} out of range: {e}") from e
    return counts, SourceConfig(**fields)


def report_payload(report: KeyRateReport) -> dict:
    return {"schema": REPORT_SCHEMA, **report.to_dict()}


def matrix_payload(matrix: np.ndarray) -> dict:
    return {"labels": list(SETTING_LABELS), "rows": matrix.tolist()}


def sweep_payload(result: LossSweepResult) -> dict:
    return {
        "schema": SWEEP_SCHEMA,
        "channel_db": result.channel_db.tolist(),
        "R_bps": result.rates_bps.tolist(),
        "reports": [r.to_dict() for r in result.reports],
    }


def _null_nan(values):
    """Floats for JSON, with NaN (a point without events) as None, i.e. null."""
    return np.where(np.isnan(values), None, values).tolist()


def scan_payload(result: PumpScanResult) -> dict:
    payload = {
        "schema": SCAN_SCHEMA,
        "pump_delay_ps": result.delays_ps.tolist(),
        "fidelity_t0": _null_nan(result.fidelity_t0),
        "fidelity_t1": _null_nan(result.fidelity_t1),
    }
    try:
        payload["separation_ps"] = extract_separation(result)
    except InvalidInputError:
        payload["separation_ps"] = None
    return payload


def stability_payload(result: StabilityResult) -> dict:
    series = {
        f"fidelity_{basis.name.lower()}{bit}": _null_nan(result.fidelity_series[(basis, bit)])
        for basis, bit in result.fidelity_series
    }
    means = {
        f"{basis.name.lower()}{bit}": _null_nan(result.mean_fidelities[(basis, bit)])
        for basis, bit in result.mean_fidelities
    }
    return {
        "schema": STABILITY_SCHEMA,
        "times_h": result.times_h.tolist(),
        **series,
        "qber_series": _null_nan(result.qber_series),
        "mean_fidelities": means,
        "E_mu": _null_nan(result.qber_aggregate),
        "report": result.report.to_dict(),
    }


def _csv_lines(header: list[str], rows) -> str:
    # None and NaN (a point without events) are empty fields
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "" if v is None or v != v else f"{v!r}" if isinstance(v, float) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


def sweep_csv(result: LossSweepResult) -> str:
    rows = [
        (float(db), float(r.r_bps), r.q_mu, r.e_mu)
        for db, r in zip(result.channel_db, result.reports)
    ]
    return _csv_lines(["channel_db", "R_bps", "Q_mu", "E_mu"], rows)


def scan_csv(result: PumpScanResult) -> str:
    rows = zip(result.delays_ps.tolist(), result.fidelity_t0.tolist(), result.fidelity_t1.tolist())
    return _csv_lines(["pump_delay_ps", "fidelity_t0", "fidelity_t1"], rows)


def stability_csv(result: StabilityResult) -> str:
    keys = list(result.fidelity_series)
    header = ["time_h"] + [f"fidelity_{b.name.lower()}{i}" for b, i in keys] + ["qber"]
    series = [result.fidelity_series[key].tolist() for key in keys]
    rows = zip(result.times_h.tolist(), *series, result.qber_series.tolist())
    return _csv_lines(header, rows)


def report_csv(report: KeyRateReport) -> str:
    d = report.to_dict()
    rows = [(k, v if not isinstance(v, list) else ";".join(v)) for k, v in d.items()]
    return _csv_lines(["quantity", "value"], rows)
