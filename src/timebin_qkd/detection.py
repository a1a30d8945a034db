"""Receiver simulation: projection, click model, time tags, and counting.

The receiver splits incoming light 50:50 between a time-basis and a
phase-basis pathway ending on one detector each.  A polarizing delayed
interferometer (0.88 m path difference, 2.935 ns) maps the two orthogonal
polarizations to two nanosecond slots per pathway, giving four detection
windows per repetition frame.  Counting is by pulse outcome; time tags are
an equivalent record of the same clicks for external tooling.

Probabilities come straight from the switched-state amplitudes: the
effective detected qubit is (switched early-bin V amplitude, unswitched
late-bin H amplitude), projected onto the chosen basis pair.  Amplitude in
the two crossed modes (early-bin H, late-bin V) carries no usable bit in
the time pathway; by default such events record a uniformly random bit
(no-information convention), configurable to discard them or to route by
polarization.  In a superposition basis crossed modes lack a temporal
interference partner and genuinely project 50:50.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import ConfigError, InvalidInputError
from .qubit import Basis, PreparationSetting, mub_states
from .source import IntensityClass, LossBudget, SourceConfig, transmittance
from .switch import POL_H, POL_V, SwitchedState, SwitchModel, apply_switch_both_bins

# Path difference of the polarizing delayed interferometer: 0.88 m of fiber
# free-space-equivalent delay between the two polarization arms.
INTERFEROMETER_DELAY_PS = 0.88 / 299792458.0 * 1e12

# Electronic offset separating the two basis groups on the shared time axis.
BASIS_GROUP_OFFSET_PS = 8000.0


_STRAY_POLICIES = ("random", "discard", "by_polarization")
_DOUBLE_POLICIES = ("random", "discard")


@dataclass(frozen=True)
class DetectorModel:
    """Detector and measurement-chain imperfections.

    efficiency_db: detection efficiency expressed as a dB loss.
    dark_count_rate_hz: dark rate per detector; darks are injected per
        window as rate * window duration.
    jitter_sigma_ps: Gaussian timing jitter applied to time tags.
    window_ns: acceptance window around each slot center.
    dead_time_ns: detector dead time after a recorded click.
    intrinsic_error: probability a detected photon records the wrong bit
        (residual interference contrast, alignment); sets the error floor.
    double_click_policy: "random" squashes a double click to a uniform bit,
        "discard" drops the event.
    stray_time_policy: handling of crossed-polarization modes in the time
        pathway ("random", "discard", or "by_polarization").
    recombination_phase: phase error of the phase-basis recombination (rad).
    """

    efficiency_db: float = 2.2
    dark_count_rate_hz: float = 100.0
    jitter_sigma_ps: float = 150.0
    window_ns: float = 0.8
    dead_time_ns: float = 50.0
    intrinsic_error: float = 0.008
    double_click_policy: str = "random"
    stray_time_policy: str = "random"
    recombination_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.efficiency_db) and self.efficiency_db >= 0):
            raise InvalidInputError("efficiency_db must be finite and non-negative")
        for name in ("dark_count_rate_hz", "jitter_sigma_ps", "dead_time_ns"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInputError(f"{name} must be finite and non-negative")
        if not self.window_ns > 0:
            raise InvalidInputError("window_ns must be positive")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise InvalidInputError("intrinsic_error must lie in [0, 0.5]")
        if self.double_click_policy not in _DOUBLE_POLICIES:
            raise InvalidInputError(f"double_click_policy must be one of {_DOUBLE_POLICIES}")
        if self.stray_time_policy not in _STRAY_POLICIES:
            raise InvalidInputError(f"stray_time_policy must be one of {_STRAY_POLICIES}")
        if not math.isfinite(self.recombination_phase):
            raise InvalidInputError("recombination_phase must be finite")

    @property
    def efficiency(self) -> float:
        return transmittance(self.efficiency_db)

    @property
    def dark_prob_per_window(self) -> float:
        return self.dark_count_rate_hz * self.window_ns * 1e-9


@dataclass(frozen=True)
class ClickEvent:
    """One detector click: which detector, when (ps since pulse epoch)."""

    pulse_index: int
    detector_id: int
    timestamp_ps: float

    def __post_init__(self) -> None:
        if self.pulse_index < 0:
            raise InvalidInputError("pulse_index must be non-negative")
        if self.detector_id not in (0, 1):
            raise InvalidInputError("detector_id must be 0 or 1")
        if not math.isfinite(self.timestamp_ps):
            raise InvalidInputError("timestamp_ps must be finite")


def _default_centers() -> tuple[float, float, float, float]:
    return (
        0.0,
        INTERFEROMETER_DELAY_PS,
        BASIS_GROUP_OFFSET_PS,
        BASIS_GROUP_OFFSET_PS + INTERFEROMETER_DELAY_PS,
    )


@dataclass(frozen=True)
class WindowLayout:
    """Slot centers of the four (basis, bit) windows and their common width.

    centers_ps orders as (phase bit0, phase bit1, time bit0, time bit1);
    index = basis * 2 + bit.  Windows must not overlap.
    """

    centers_ps: tuple[float, float, float, float] = field(default_factory=_default_centers)
    width_ps: float = 800.0

    def __post_init__(self) -> None:
        if len(self.centers_ps) != 4:
            raise ConfigError("centers_ps must hold four slot centers")
        if not self.width_ps > 0:
            raise ConfigError("width_ps must be positive")
        ordered = sorted(self.centers_ps)
        for a, b in zip(ordered, ordered[1:]):
            if b - a < self.width_ps:
                raise ConfigError(
                    f"windows overlap: centers {a} and {b} ps are closer than {self.width_ps} ps"
                )

    def center(self, basis: Basis, bit: int) -> float:
        if basis not in (Basis.PHASE, Basis.TIME):
            raise InvalidInputError("only the two BB84 pathways have slots")
        if bit not in (0, 1):
            raise InvalidInputError("bit must be 0 or 1")
        return self.centers_ps[int(basis) * 2 + bit]

    def classify(self, timestamp_ps: float) -> tuple[Basis, int] | None:
        """Window containing the timestamp, or None if it falls outside all."""
        half = 0.5 * self.width_ps
        for idx, c in enumerate(self.centers_ps):
            if abs(timestamp_ps - c) <= half:
                return Basis(idx // 2), idx % 2
        return None


@dataclass
class SessionCounts:
    """Event counts N_{i,j} indexed [class][alpha][i][beta][j].

    alpha/i are the sender's basis and bit, beta/j the receiver's.  Merging
    is plain integer addition, so partial results combine associatively and
    in any order.  pulses_sent tracks emitted pulses per (class, alpha, i).
    """

    counts: np.ndarray
    pulses_sent: np.ndarray

    @classmethod
    def zeros(cls) -> "SessionCounts":
        return cls(
            counts=np.zeros((3, 2, 2, 2, 2), dtype=np.int64),
            pulses_sent=np.zeros((3, 2, 2), dtype=np.int64),
        )

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.pulses_sent = np.asarray(self.pulses_sent, dtype=np.int64)
        if self.counts.shape != (3, 2, 2, 2, 2) or self.pulses_sent.shape != (3, 2, 2):
            raise InvalidInputError("counts must be (3,2,2,2,2) and pulses_sent (3,2,2)")
        if np.any(self.counts < 0) or np.any(self.pulses_sent < 0):
            raise InvalidInputError("counts must be non-negative")
        recorded = self.counts.sum(axis=(3, 4))
        if np.any(recorded > self.pulses_sent):
            raise InvalidInputError("more recorded events than pulses sent")

    def __add__(self, other: "SessionCounts") -> "SessionCounts":
        return SessionCounts(self.counts + other.counts, self.pulses_sent + other.pulses_sent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionCounts):
            return NotImplemented
        return np.array_equal(self.counts, other.counts) and np.array_equal(
            self.pulses_sent, other.pulses_sent
        )

    def clicks(self, cls: IntensityClass) -> int:
        return int(self.counts[int(cls)].sum())

    def pulses(self, cls: IntensityClass) -> int:
        return int(self.pulses_sent[int(cls)].sum())

    def gain(self, cls: IntensityClass) -> float:
        n = self.pulses(cls)
        if n == 0:
            raise InvalidInputError(f"no pulses recorded for class {IntensityClass(cls).name}")
        return self.clicks(cls) / n

    def matched_clicks(self, cls: IntensityClass) -> int:
        c = self.counts[int(cls)]
        return int(c[0, :, 0, :].sum() + c[1, :, 1, :].sum())

    def matched_errors(self, cls: IntensityClass) -> int:
        c = self.counts[int(cls)]
        return int(c[0, 0, 0, 1] + c[0, 1, 0, 0] + c[1, 0, 1, 1] + c[1, 1, 1, 0])

    def to_dict(self) -> dict:
        return {
            "counts": self.counts.tolist(),
            "pulses_sent": self.pulses_sent.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SessionCounts":
        """Counts from parsed JSON; every entry must be a JSON integer.

        Floats, strings and booleans are rejected rather than cast, so a
        hand-edited file cannot lose a fraction or turn `true` into 1.
        """
        try:
            fields = [np.array(d[k], dtype=object) for k in ("counts", "pulses_sent")]
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInputError(f"malformed counts payload: {e}") from e
        bad = [v for arr in fields for v in arr.flat if type(v) is not int]
        if bad:
            raise InvalidInputError(f"counts entries must be integers, got {bad[0]!r}")
        try:
            return cls(*fields)
        except OverflowError as e:
            raise InvalidInputError(f"counts entry out of range: {e}") from e


def outcome_probabilities(
    state: SwitchedState, basis: Basis, det: DetectorModel
) -> tuple[float, float, float]:
    """(P bit0, P bit1, P discarded) for an incident photon, before darks.

    The effective detected qubit is (e^{i chi} * amp(t0, V), amp(t1, H));
    crossed-mode amplitude is handled per the detector's stray policy in
    the time pathway and projects 50:50 in superposition pathways.
    """
    chi = det.recombination_phase
    psi0 = state.amp(0, POL_V) * complex(math.cos(chi), math.sin(chi))
    psi1 = state.amp(1, POL_H)
    stray_h = abs(state.amp(0, POL_H)) ** 2
    stray_v = abs(state.amp(1, POL_V)) ** 2
    stray = stray_h + stray_v

    if basis == Basis.TIME:
        p0 = abs(psi0) ** 2
        p1 = abs(psi1) ** 2
        drop = 0.0
        if det.stray_time_policy == "random":
            p0 += 0.5 * stray
            p1 += 0.5 * stray
        elif det.stray_time_policy == "by_polarization":
            p0 += stray_v
            p1 += stray_h
        else:
            drop = stray
        return p0, p1, drop

    b0, b1 = mub_states(basis)
    p0 = abs(b0.amp_t0.conjugate() * psi0 + b0.amp_t1.conjugate() * psi1) ** 2 + 0.5 * stray
    p1 = abs(b1.amp_t0.conjugate() * psi0 + b1.amp_t1.conjugate() * psi1) ** 2 + 0.5 * stray
    return p0, p1, 0.0


@dataclass
class PulseLedger:
    """Sender-side record of a pulse range: class and preparation per pulse.

    Covers pulses [start_index, start_index + len); accumulate() needs it
    to attribute windowed clicks to (class, alpha, i).  Every class index
    is 0, 1 or 2 and every alpha and bit 0 or 1, so each is one digit in
    the ledger file.
    """

    start_index: int
    class_idx: np.ndarray
    alpha: np.ndarray
    bit: np.ndarray

    def __post_init__(self) -> None:
        self.class_idx = np.asarray(self.class_idx, dtype=np.int64)
        self.alpha = np.asarray(self.alpha, dtype=np.int64)
        self.bit = np.asarray(self.bit, dtype=np.int64)
        n = len(self.class_idx)
        if len(self.alpha) != n or len(self.bit) != n:
            raise InvalidInputError("ledger arrays must have equal length")
        if self.start_index < 0:
            raise InvalidInputError("start_index must be non-negative")
        for name, top in (("class_idx", 2), ("alpha", 1), ("bit", 1)):
            values = getattr(self, name)
            if np.any((values < 0) | (values > top)):
                raise InvalidInputError(f"ledger {name} values must lie in 0..{top}")

    def __len__(self) -> int:
        return len(self.class_idx)


def accumulate(
    tags: list[ClickEvent],
    layout: WindowLayout,
    ledger: PulseLedger,
) -> SessionCounts:
    """Bin time tags into windows and tally counts against the ledger.

    Each tag lands in the window containing its timestamp (the first in
    `centers_ps` order, as `WindowLayout.classify`) or is discarded.
    Pulses with more than one windowed tag are discarded (deterministic, so
    pieces merge associatively).  pulses_sent comes from the ledger, so
    accumulating disjoint (tags, ledger) pieces and summing equals
    accumulating the concatenation.
    """
    out = SessionCounts.zeros()
    flat_sent = (
        ledger.class_idx * 4 + ledger.alpha * 2 + ledger.bit
    )
    out.pulses_sent += np.bincount(flat_sent, minlength=12).reshape(3, 2, 2)

    pulse = np.fromiter(map(attrgetter("pulse_index"), tags), np.int64, len(tags))
    ts = np.fromiter(map(attrgetter("timestamp_ps"), tags), np.float64, len(tags))
    outside = (pulse < ledger.start_index) | (pulse >= ledger.start_index + len(ledger))
    if outside.any():
        raise InvalidInputError(
            f"tag pulse_index {pulse[outside.argmax()]} outside ledger range"
        )
    in_window = np.abs(ts[:, None] - np.array(layout.centers_ps)) <= 0.5 * layout.width_ps
    hit = in_window.any(axis=1)
    window = in_window.argmax(axis=1)[hit]
    pulses, first, n_windowed = np.unique(pulse[hit], return_index=True, return_counts=True)
    single = n_windowed == 1
    row = pulses[single] - ledger.start_index
    window = window[first[single]]
    np.add.at(
        out.counts,
        (ledger.class_idx[row], ledger.alpha[row], ledger.bit[row], window // 2, window % 2),
        1,
    )
    return out


TAG_HEADER = "pulse_index,detector_id,timestamp_ps"
LEDGER_HEADER = "pulse_index,intensity_class,alpha,bit"

# Ledger rows formatted per write; bounds the writer's memory whatever the
# ledger length.
LEDGER_CHUNK_ROWS = 1 << 14

# A whitespace-only line, and a ledger line that is neither empty nor four
# comma-separated integers.
_BLANK_LINE = re.compile(r"(?m)^[ \t\v\f]+$")
_INT_FIELD = r"[ \t]*[+-]?\d+[ \t]*"
_BAD_LEDGER_LINE = re.compile(rf"(?m)^(?!{_INT_FIELD}(?:,{_INT_FIELD}){{3}}$).+$")


def _check_header(f, expected: str, what: str) -> None:
    header = f.readline().strip()
    if header != expected:
        raise InvalidInputError(f"unrecognized {what} header: {header!r}")


def write_time_tags(path, tags: list[ClickEvent]) -> None:
    """Write tags as line-oriented text: pulse_index,detector_id,timestamp_ps."""
    with open(path, "w", encoding="ascii") as f:
        f.write(TAG_HEADER + "\n")
        for t in tags:
            f.write(f"{t.pulse_index},{t.detector_id},{t.timestamp_ps!r}\n")


def read_time_tags(path) -> list[ClickEvent]:
    tags = []
    with open(path, "r", encoding="ascii") as f:
        _check_header(f, TAG_HEADER, "tag file")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                pi, det_id, ts = line.split(",")
                tags.append(ClickEvent(int(pi), int(det_id), float(ts)))
            except ValueError as e:
                raise InvalidInputError(
                    f"tag file line {lineno}: expected {TAG_HEADER}, got {line!r}"
                ) from e
    return tags


def _ledger_chunk(ledger: PulseLedger, lo: int, hi: int) -> bytes:
    """Ledger rows lo..hi-1 as ASCII, built as one byte matrix.

    Each row of the matrix holds the pulse index right-aligned in `width`
    digit columns, then ",c,a,b\n"; the leading zeros of shorter indices
    are masked out when the matrix is flattened.
    """
    idx = np.arange(ledger.start_index + lo, ledger.start_index + hi, dtype=np.int64)
    width = len(str(ledger.start_index + hi - 1))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    mat = np.empty((hi - lo, width + 7), dtype=np.uint8)
    mat[:, :width] = idx[:, None] // powers % 10 + ord("0")
    mat[:, width:] = np.frombuffer(b",0,0,0\n", dtype=np.uint8)
    mat[:, width + 1] += ledger.class_idx[lo:hi].astype(np.uint8)
    mat[:, width + 3] += ledger.alpha[lo:hi].astype(np.uint8)
    mat[:, width + 5] += ledger.bit[lo:hi].astype(np.uint8)
    keep = np.ones(mat.shape, dtype=bool)
    keep[:, :width] = powers <= np.maximum(idx, 1)[:, None]
    return mat[keep].tobytes()


def write_pulse_ledger(path, ledger: PulseLedger) -> None:
    """Write the sender record: pulse_index,intensity_class,alpha,bit.

    Rows are formatted LEDGER_CHUNK_ROWS at a time, so memory stays bounded.
    """
    with open(path, "wb") as f:
        f.write(LEDGER_HEADER.encode("ascii") + b"\n")
        for lo in range(0, len(ledger), LEDGER_CHUNK_ROWS):
            f.write(_ledger_chunk(ledger, lo, min(lo + LEDGER_CHUNK_ROWS, len(ledger))))


def _load_ledger_rows(f) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns on input without rows; the caller reports it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2, comments=None)


def _reread_ledger_rows(body: str) -> np.ndarray:
    """Rows of a ledger body that one loadtxt pass refused or misread.

    loadtxt rejects whitespace-only lines, which the format allows, and
    numbers rows inconsistently in its errors; here whitespace-only lines
    are emptied first and a bad row is reported by its file line.
    """
    body = _BLANK_LINE.sub("", body)
    bad = _BAD_LEDGER_LINE.search(body)
    if bad is not None:
        lineno = body.count("\n", 0, bad.start()) + 2
        raise InvalidInputError(
            f"ledger line {lineno}: expected {LEDGER_HEADER}, got {bad.group().strip()!r}"
        )
    try:
        return _load_ledger_rows(io.StringIO(body))
    except ValueError as e:
        raise InvalidInputError(f"malformed pulse ledger: {e}") from e


def read_pulse_ledger(path) -> PulseLedger:
    """Read a ledger file; one loadtxt call parses every row."""
    with open(path, "r", encoding="ascii") as f:
        _check_header(f, LEDGER_HEADER, "ledger")
        body_start = f.tell()
        try:
            rows = _load_ledger_rows(f)
        except ValueError:
            rows = None
        if rows is None or rows.shape[1] != 4:
            f.seek(body_start)
            rows = _reread_ledger_rows(f.read())
    if len(rows) == 0:
        raise InvalidInputError("empty pulse ledger")
    idx = rows[:, 0]
    start = int(idx[0])
    if not np.array_equal(idx, np.arange(start, start + len(idx))):
        raise InvalidInputError("ledger pulse indices must be contiguous")
    return PulseLedger(start, rows[:, 1], rows[:, 2], rows[:, 3])


def _dead_frames(det: DetectorModel, source: SourceConfig) -> int:
    return int(math.ceil(det.dead_time_ns * 1e3 / source.frame_ps))


def _prune_dead_time(
    frames: np.ndarray, detector: np.ndarray, blocked: int
) -> np.ndarray:
    # Greedy pass per detector over the sparse click list: a kept event
    # blocks the next `blocked` frames on its detector.
    keep = np.ones(len(frames), dtype=bool)
    if blocked <= 0 or len(frames) == 0:
        return keep
    next_free = [0, 0]
    for k in range(len(frames)):
        d = detector[k]
        if frames[k] < next_free[d]:
            keep[k] = False
        else:
            next_free[d] = frames[k] + blocked + 1
    return keep


def _prune_dead_time_clusters(
    frames: np.ndarray, detector: np.ndarray, blocked: int
) -> np.ndarray:
    """The greedy dead-time pass, run only where it can drop something.

    An event more than `blocked` frames after the previous event on its
    detector is always kept, because whichever of the earlier events was
    kept last has released the detector by then.  Only clusters of events
    that close together go through `_prune_dead_time`; clusters on one
    detector are that far apart, so each starts from a free detector.
    frames must be sorted.
    """
    keep = np.ones(len(frames), dtype=bool)
    if blocked <= 0 or len(frames) < 2:
        return keep
    clustered = np.zeros(len(frames), dtype=bool)
    for d in (0, 1):
        idx = np.flatnonzero(detector == d)
        close = np.diff(frames[idx]) <= blocked
        clustered[idx[1:][close]] = True
        clustered[idx[:-1][close]] = True
    sub = np.flatnonzero(clustered)
    keep[sub] = _prune_dead_time(frames[sub].tolist(), detector[sub].tolist(), blocked)
    return keep


# A frame is in one of 24 states: pathway beta (1 = time) x signal {none,
# bit 0, bit 1} x dark click in window 0 x dark click in window 1.  The two
# states with no signal and no dark are silent; the other 22, in this
# order, are the events the block engine draws.
_EVENT_STATES = [
    (b, s, d0, d1)
    for b in (0, 1) for s in (0, 1, 2) for d0 in (0, 1) for d1 in (0, 1)
    if s or d0 or d1
]
_EVENT_BETA = np.array([st[0] for st in _EVENT_STATES], dtype=np.int8)
_EVENT_CLICK0 = np.array([st[1] == 1 or st[2] == 1 for st in _EVENT_STATES])
_EVENT_CLICK1 = np.array([st[1] == 2 or st[3] == 1 for st in _EVENT_STATES])


def _event_probabilities(
    mean: float, q_surv: float, outcomes: list[tuple[float, float, float]], det: DetectorModel
) -> np.ndarray:
    """Per-frame probabilities of the 22 event states, then the silent rest.

    A Poisson(mean) pulse thinned by q_surv gives a photon click with
    probability 1 - exp(-mean * q_surv); the click then projects per the
    `outcomes` of its pathway and flips with the intrinsic error.
    """
    p_photon = -math.expm1(-mean * q_surv)
    e = det.intrinsic_error
    p_dark = det.dark_prob_per_window
    dark = (1.0 - p_dark, p_dark)
    signal = [
        (
            1.0 - p_photon * (p0 + p1),
            p_photon * (p0 * (1.0 - e) + p1 * e),
            p_photon * (p1 * (1.0 - e) + p0 * e),
        )
        for p0, p1, _ in outcomes
    ]
    probs = [0.5 * signal[b][s] * dark[d0] * dark[d1] for b, s, d0, d1 in _EVENT_STATES]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    return np.array(probs)


def simulate_block(
    prep: PreparationSetting,
    n_pulses: int,
    source: SourceConfig,
    budget: LossBudget,
    switch: SwitchModel,
    det: DetectorModel,
    rng: np.random.Generator,
    *,
    collect_tags: bool = False,
    layout: WindowLayout | None = None,
    start_index: int = 0,
):
    """Simulate a pulse train of one preparation setting, drawing only events.

    Frames are independent, so a frame's fate is one of 22 event states
    (pathway, signal bit after the intrinsic flip, dark click per window;
    see `_event_probabilities`) or silence.  The block draws the class
    totals, then per class the multinomial counts of the event states, and
    places the events on distinct frames drawn uniformly without
    replacement.  Dead time then drops clicks on a busy detector, and the
    double-click policy draws a coin for each surviving double only.

    Returns SessionCounts; with collect_tags=True returns (counts, tags,
    ledger) where tags are the physical click record (doubles keep both
    clicks, no policy applied).  The ledger and tag draws come after every
    draw the counts depend on, so the counts do not depend on collect_tags.
    """
    if n_pulses < 0:
        raise InvalidInputError("n_pulses must be non-negative")
    sw = apply_switch_both_bins(prep.state(), switch)
    outcomes = [outcome_probabilities(sw, b, det) for b in (Basis.PHASE, Basis.TIME)]
    q_surv = transmittance(budget.path_db) * det.efficiency
    n = int(n_pulses)

    class_totals = rng.multinomial(n, source.class_probabilities)
    per_class = np.stack([
        rng.multinomial(
            class_totals[c], _event_probabilities(source.mean_for(c), q_surv, outcomes, det)
        )[:-1]
        for c in range(3)
    ])
    n_states = len(_EVENT_STATES)
    ev_cls = np.repeat(np.arange(3 * n_states) // n_states, per_class.ravel())
    ev_state = np.repeat(np.tile(np.arange(n_states), 3), per_class.ravel())
    # choice() returns its sample in random order, so pairing it with the
    # grouped event list puts every event on a uniformly random frame.
    frames = rng.choice(n, len(ev_cls), replace=False)
    order = np.argsort(frames)
    frames, ev_cls, ev_state = frames[order], ev_cls[order], ev_state[order]
    beta = _EVENT_BETA[ev_state]

    keep = _prune_dead_time_clusters(frames, beta, _dead_frames(det, source))
    click0 = _EVENT_CLICK0[ev_state] & keep
    click1 = _EVENT_CLICK1[ev_state] & keep
    double = click0 & click1
    bit = click1.astype(np.int8)
    if det.double_click_policy == "random":
        counted = click0 | click1
        bit[double] = rng.random(int(double.sum())) < 0.5
    else:
        counted = click0 ^ click1

    out = SessionCounts.zeros()
    alpha = int(prep.basis)
    i = prep.bit
    flat = ev_cls[counted] * 4 + beta[counted] * 2 + bit[counted]
    out.counts[:, alpha, i, :, :] += np.bincount(flat, minlength=12).reshape(3, 2, 2)
    out.pulses_sent[:, alpha, i] += class_totals

    if not collect_tags:
        return out

    # Silent frames take the remaining class totals in random order.
    cls = np.empty(n, dtype=np.int64)
    silent = np.ones(n, dtype=bool)
    silent[frames] = False
    rest = class_totals - np.bincount(ev_cls, minlength=3)
    cls[silent] = rng.permutation(np.repeat(np.arange(3), rest))
    cls[frames] = ev_cls

    layout = layout or WindowLayout()
    tags: list[ClickEvent] = []
    for b_val, clicks in ((0, click0), (1, click1)):
        idx = np.flatnonzero(clicks)
        if len(idx) == 0:
            continue
        centers = np.array([layout.center(Basis(bb), b_val) for bb in (0, 1)])
        ts = centers[beta[idx]] + rng.normal(0.0, det.jitter_sigma_ps, size=len(idx))
        for pi, d, t in zip((start_index + frames[idx]).tolist(), beta[idx].tolist(), ts.tolist()):
            tags.append(ClickEvent(pi, d, t))
    tags.sort(key=lambda t: (t.pulse_index, t.timestamp_ps))
    ledger = PulseLedger(
        start_index,
        cls,
        np.full(n, alpha, dtype=np.int64),
        np.full(n, i, dtype=np.int64),
    )
    return out, tags, ledger
