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
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError
from .qubit import Basis, PreparationSetting, mub_states
from .source import IntensityClass, LossBudget, SourceConfig, transmittance
from .switch import (
    POL_H,
    POL_V,
    SwitchedState,
    SwitchModel,
    _bin_rotation,
    apply_switch_both_bins,  # noqa: F401  (perfbench/spans.py wraps it at this name)
    bin_efficiencies,
)

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
        if not (math.isfinite(self.window_ns) and self.window_ns > 0):
            raise InvalidInputError("window_ns must be finite and positive")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise InvalidInputError("intrinsic_error must lie in [0, 0.5]")
        if self.double_click_policy not in _DOUBLE_POLICIES:
            raise InvalidInputError(f"double_click_policy must be one of {_DOUBLE_POLICIES}")
        if self.stray_time_policy not in _STRAY_POLICIES:
            raise InvalidInputError(f"stray_time_policy must be one of {_STRAY_POLICIES}")
        if not math.isfinite(self.recombination_phase):
            raise InvalidInputError("recombination_phase must be finite")
        if not self.dark_prob_per_window <= 1.0:
            raise InvalidInputError(
                "dark_count_rate_hz * window_ns gives a dark probability per window "
                f"of {self.dark_prob_per_window}, above 1"
            )

    @property
    def efficiency(self) -> float:
        return transmittance(self.efficiency_db)

    @property
    def dark_prob_per_window(self) -> float:
        return self.dark_count_rate_hz * self.window_ns * 1e-9


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
        if (self.counts < 0).any() or (self.pulses_sent < 0).any():
            raise InvalidInputError("counts must be non-negative")
        recorded = self.counts.sum(axis=(3, 4))
        if (recorded > self.pulses_sent).any():
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
        """Recorded events per pulse sent; 0.0 for a class that was never sent."""
        n = self.pulses(cls)
        return self.clicks(cls) / n if n else 0.0

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
    the ledger file and the columns are held as int8.  Values are
    range-checked in the input's own dtype (int64 for input that is not
    integer), before narrowing, so 258 cannot wrap to 2.
    """

    start_index: int
    class_idx: np.ndarray
    alpha: np.ndarray
    bit: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.class_idx)
        if len(self.alpha) != n or len(self.bit) != n:
            raise InvalidInputError("ledger arrays must have equal length")
        if self.start_index < 0:
            raise InvalidInputError("start_index must be non-negative")
        for name, top in (("class_idx", 2), ("alpha", 1), ("bit", 1)):
            values = np.asarray(getattr(self, name))
            if values.dtype.kind not in "iu":
                values = values.astype(np.int64)
            if n and (values.min() < 0 or values.max() > top):
                raise InvalidInputError(f"ledger {name} values must lie in 0..{top}")
            setattr(self, name, values.astype(np.int8, copy=False))

    def __len__(self) -> int:
        return len(self.class_idx)


@dataclass
class TimeTags:
    """The click record as columns: one row per click, in any order.

    Row k says detector detector_id[k] (0 the phase pathway, 1 the time
    pathway) clicked at timestamp_ps[k] ps after the epoch of pulse
    pulse_index[k].  detector_id is range-checked as int64 and then held
    as int8, so 256 cannot wrap to 0.
    """

    pulse_index: np.ndarray
    detector_id: np.ndarray
    timestamp_ps: np.ndarray

    def __post_init__(self) -> None:
        self.pulse_index = np.asarray(self.pulse_index, dtype=np.int64)
        detector_id = np.asarray(self.detector_id, dtype=np.int64)
        self.timestamp_ps = np.asarray(self.timestamp_ps, dtype=np.float64)
        n = len(self.pulse_index)
        if len(detector_id) != n or len(self.timestamp_ps) != n:
            raise InvalidInputError("tag arrays must have equal length")
        if np.any(self.pulse_index < 0):
            raise InvalidInputError("pulse_index must be non-negative")
        if np.any((detector_id != 0) & (detector_id != 1)):
            raise InvalidInputError("detector_id must be 0 or 1")
        self.detector_id = detector_id.astype(np.int8)
        if not np.all(np.isfinite(self.timestamp_ps)):
            raise InvalidInputError("timestamp_ps must be finite")

    def __len__(self) -> int:
        return len(self.pulse_index)


def accumulate(
    tags: TimeTags,
    layout: WindowLayout,
    ledger: PulseLedger,
) -> SessionCounts:
    """Bin time tags into windows and tally counts against the ledger.

    Each tag lands in the window containing its timestamp, edges
    included (the first in `centers_ps` order), or is discarded.
    Pulses with more than one windowed tag are discarded (deterministic, so
    pieces merge associatively).  pulses_sent comes from the ledger, so
    accumulating disjoint (tags, ledger) pieces and summing equals
    accumulating the concatenation.
    """
    out = SessionCounts.zeros()
    # tallied 2**16 pulses at a time: bincount casts its input to intp
    for lo in range(0, len(ledger), 1 << 16):
        part = slice(lo, lo + (1 << 16))
        flat_sent = ledger.class_idx[part] * 4 + ledger.alpha[part] * 2 + ledger.bit[part]
        out.pulses_sent += np.bincount(flat_sent, minlength=12).reshape(3, 2, 2)

    pulse, ts = tags.pulse_index, tags.timestamp_ps
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
_TAG_DTYPE = np.dtype(list(zip(TAG_HEADER.split(","), (np.int64, np.int64, np.float64))))
_LEDGER_DTYPE = np.dtype([(name, np.int64) for name in LEDGER_HEADER.split(",")])

# Pulse indices in an aligned run of _RUN share all but their last four
# digits, which the ledger writer copies from one template per run.
_RUN = 10_000
_ROW_TAIL = np.frombuffer(b",0,0,0\n", dtype=np.uint8)

# Ledger rows formatted or read back at a time, a whole number of runs;
# bounds the memory of each whatever the ledger length.  Tag rows are
# formatted in batches of the same size.
LEDGER_CHUNK_ROWS = 2 * _RUN

# A whitespace-only line, and a tag or ledger line that is neither empty
# nor the comma-separated numbers of its format.
_BLANK_LINE = re.compile(r"(?m)^[ \t\v\f]+$")
_INT_FIELD = r"[ \t]*[+-]?\d+[ \t]*"
_FLOAT_FIELD = r"[ \t]*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:inf|infinity|nan))[ \t]*"
_BAD_TAG_LINE = re.compile(rf"(?m)^(?!{_INT_FIELD},{_INT_FIELD},{_FLOAT_FIELD}$).+$")
_BAD_LEDGER_LINE = re.compile(rf"(?m)^(?!{_INT_FIELD}(?:,{_INT_FIELD}){{3}}$).+$")


def _load_rows(f, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns on input without rows; the caller reports it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(f, delimiter=",", dtype=dtype, ndmin=1, comments=None)


def _read_rows(path, header: str, what: str, dtype: np.dtype, bad_line: re.Pattern) -> np.ndarray:
    """The rows of a tag or ledger file as one structured array.

    One loadtxt call parses the body.  loadtxt rejects whitespace-only
    lines, which the formats allow, and numbers rows inconsistently in its
    errors; when it refuses the body, the text is re-read with
    whitespace-only lines emptied and the first line `bad_line` matches is
    reported by its file line.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            found = f.readline().strip()
            if found != header:
                raise InvalidInputError(f"unrecognized {what} header: {found!r}")
            body_start = f.tell()
            try:
                return _load_rows(f, dtype)
            except ValueError:
                f.seek(body_start)
                body = _BLANK_LINE.sub("", f.read())
    except UnicodeDecodeError:
        raise InvalidInputError(f"{what} line {_non_ascii_line(path)}: not ASCII text") from None
    bad = bad_line.search(body)
    if bad is not None:
        lineno = body.count("\n", 0, bad.start()) + 2
        raise InvalidInputError(
            f"{what} line {lineno}: expected {header}, got {bad.group().strip()!r}"
        )
    try:
        return _load_rows(io.StringIO(body), dtype)
    except ValueError as e:
        raise InvalidInputError(f"malformed {what}: {e}") from e


def _output(target):
    """`target` itself if it is an open file, else `target` opened for binary writing."""
    return nullcontext(target) if hasattr(target, "write") else open(target, "wb")


def write_time_tags(path, tags: TimeTags) -> None:
    """Write tags as line-oriented text: pulse_index,detector_id,timestamp_ps.

    Timestamps are written as their repr, so reading them back is exact.
    `path` may also be a binary file open for writing: the rows are
    appended, after the header if the file is still empty.  Rows are
    formatted at most LEDGER_CHUNK_ROWS at a time.
    """
    with _output(path) as f:
        if f.tell() == 0:
            f.write(TAG_HEADER.encode("ascii") + b"\n")
        for lo in range(0, len(tags), LEDGER_CHUNK_ROWS):
            part = slice(lo, lo + LEDGER_CHUNK_ROWS)
            columns = (tags.pulse_index[part].tolist(), tags.detector_id[part].tolist(),
                       tags.timestamp_ps[part].tolist())
            f.write("".join(map("{},{},{!r}\n".format, *columns)).encode("ascii"))


def read_time_tags(path) -> TimeTags:
    """Read a tag file; one loadtxt call parses every row."""
    rows = _read_rows(path, TAG_HEADER, "tag file", _TAG_DTYPE, _BAD_TAG_LINE)
    return TimeTags(rows["pulse_index"], rows["detector_id"], rows["timestamp_ps"])


def _non_ascii_line(path) -> int:
    """The line number, header included, of the first non-ASCII byte."""
    with open(path, "rb") as f:
        data = f.read()
    first = re.search(rb"[\x80-\xff]", data).start()
    return len(data[: first + 1].splitlines())


def _ledger_chunks(start_index: int, end_index: int):
    """The ledger file body of pulses [start_index, end_index), chunk by chunk.

    Yields (lo, hi, rows): rows is the C-contiguous (hi - lo, width + 7)
    byte matrix of the file rows of pulses start_index + lo ..
    start_index + hi - 1, with each of the three digit columns
    `rows[:, -6:-1:2]` still "0".  Each chunk holds rows of one index width
    and lies in one aligned block of LEDGER_CHUNK_ROWS indices.  It is cut
    from a (runs, _RUN, width + 7) matrix of whole runs: one run's rows of
    low digits and ",0,0,0\n" are broadcast over every run, then each
    run's high digits are written once.
    """
    # the four low digits of 0.._RUN - 1, built per call so that importing
    # the module allocates nothing
    low_digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, _RUN).T + ord("0")
    first = start_index
    while first < end_index:
        width = len(str(first))
        low = min(width, 4)
        run = np.empty((_RUN, width + 7), dtype=np.uint8)
        run[:, width - low : width] = low_digits[:, 4 - low :]
        run[:, width:] = _ROW_TAIL
        width_end = min(end_index, 10**width)
        while first < width_end:
            stop = min(width_end, first - first % LEDGER_CHUNK_ROWS + LEDGER_CHUNK_ROWS)
            base = first - first % _RUN
            runs = -(-(stop - base) // _RUN)
            mat = np.empty((runs, _RUN, width + 7), dtype=np.uint8)
            mat[:] = run
            if width > 4:
                high = "".join(map(str, range(base // _RUN, base // _RUN + runs)))
                digits = np.frombuffer(high.encode("ascii"), dtype=np.uint8)
                for col, digit in enumerate(digits.reshape(runs, width - 4).T):
                    mat[:, :, col] = digit[:, None]
            rows = mat.reshape(-1, width + 7)[first - base : stop - base]
            yield first - start_index, stop - start_index, rows
            first = stop


def write_pulse_ledger(path, ledger: PulseLedger) -> None:
    """Write the sender record: pulse_index,intensity_class,alpha,bit.

    Rows are formatted at most LEDGER_CHUNK_ROWS at a time, so memory
    stays bounded.  `path` may also be a binary file open for writing: the
    rows are appended, after the header if the file is still empty.
    """
    columns = (ledger.class_idx, ledger.alpha, ledger.bit)
    with _output(path) as f:
        if f.tell() == 0:
            f.write(LEDGER_HEADER.encode("ascii") + b"\n")
        for lo, hi, rows in _ledger_chunks(ledger.start_index, ledger.start_index + len(ledger)):
            for digit, values in zip(rows[:, -6:-1:2].T, columns):
                digit += values[lo:hi].view(np.uint8)
            f.write(rows)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _decode_written_ledger(f) -> PulseLedger | None:
    """The ledger whose written file is exactly what binary file `f` holds, or None.

    Rows of one index width have one length, so the file's size fixes
    where each width starts and the digit columns are read at fixed
    offsets.  The file is read one writer chunk at a time, and each chunk
    is accepted only if the writer's own chunk of the values it gives
    reproduces it byte for byte; the last index must fit the int64 the row
    reader parses into.
    """
    header = LEDGER_HEADER.encode("ascii") + b"\n"
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    head = f.read(len(header) + 21)
    if not head.startswith(header):
        return None
    pos = len(header)
    comma = head.find(b",", pos)
    digits = head[pos:comma]
    if comma < 0 or not digits.isdigit():
        return None
    start = index = int(digits)
    rest = size - pos
    while rest:
        width = len(str(index))
        rows = min(10**width - index, rest // (width + 7))
        if rows == 0:
            return None
        index += rows
        rest -= rows * (width + 7)
    if index - 1 > _INT64_MAX:
        return None
    columns = np.empty((3, index - start), dtype=np.uint8)
    f.seek(pos)
    for lo, hi, rows in _ledger_chunks(start, index):
        data = f.read(rows.nbytes)
        if len(data) != rows.nbytes:
            return None
        values = columns[:, lo:hi]
        values[...] = np.frombuffer(data, np.uint8).reshape(rows.shape)[:, -6:-1:2].T
        values -= ord("0")
        if values[0].max() > 2 or values[1:].max() > 1:
            return None
        for digit, column in zip(rows[:, -6:-1:2].T, values):
            digit += column
        if not data.startswith(rows):
            return None
    return PulseLedger(start, *columns.view(np.int8))


def read_pulse_ledger(path) -> PulseLedger:
    """Read a ledger file.

    A file that is exactly what write_pulse_ledger writes is decoded at
    fixed offsets, one chunk at a time; any other file goes through one
    loadtxt call, which also accepts padding, CRLF and blank lines and
    names a bad line.
    """
    with open(path, "rb") as f:
        ledger = _decode_written_ledger(f)
    return ledger if ledger is not None else _read_ledger_rows(path)


def _read_ledger_rows(path) -> PulseLedger:
    """The loadtxt path of read_pulse_ledger, which takes any ledger file."""
    rows = _read_rows(path, LEDGER_HEADER, "ledger", _LEDGER_DTYPE, _BAD_LEDGER_LINE)
    if len(rows) == 0:
        raise InvalidInputError("empty pulse ledger")
    idx = rows["pulse_index"]
    start = int(idx[0])
    if not np.array_equal(idx, np.arange(start, start + len(idx))):
        raise InvalidInputError("ledger pulse indices must be contiguous")
    return PulseLedger(start, rows["intensity_class"], rows["alpha"], rows["bit"])


def _dead_frames(det: DetectorModel, source: SourceConfig) -> int:
    return int(math.ceil(det.dead_time_ns * 1e3 / source.frame_ps))


def _prune_dead_time_clusters(
    frames: np.ndarray, detector: np.ndarray, blocked: int
) -> np.ndarray:
    """Keep mask of the greedy dead-time pass: a kept event blocks the next
    `blocked` frames on its detector.  frames must be sorted.

    An event more than `blocked` frames after the previous event on its
    detector is always kept, because whichever of the earlier events was
    kept last has released the detector by then.  Only clusters of events
    that close together need the pass.  Within them the kept events are
    the chain that starts at each cluster's first event and steps to the
    first event at least `blocked` + 1 frames later; the chains are
    marked by pointer doubling, so the pass takes O(log n) array rounds.
    """
    keep = np.ones(len(frames), dtype=bool)
    if blocked <= 0 or len(frames) < 2:
        return keep
    # Two events that close on one detector make every event between them
    # close to its neighbours, so only events close to a neighbour on
    # either detector can be clustered.
    near = np.diff(frames) <= blocked
    candidates = np.zeros(len(frames), dtype=bool)
    candidates[1:] = near
    candidates[:-1] |= near
    candidates = np.flatnonzero(candidates)
    # the candidates on detector 0, then on detector 1, each in frame order
    on = detector[candidates]
    on_detector = [candidates[on == d] for d in (0, 1)]
    order = np.concatenate(on_detector)
    f = frames[order]
    close = np.diff(f) <= blocked
    n0 = len(on_detector[0])
    close[n0 - 1 : n0] = False  # the last event on detector 0 and the first on 1
    clustered = np.zeros(len(f), dtype=bool)
    clustered[1:] = close
    clustered[:-1] |= close
    sub = np.flatnonzero(clustered)
    if len(sub) == 0:
        return keep
    # detector 1's frames shifted past detector 0's, so one sorted axis
    # holds both and no step crosses from one detector to the other
    axis = f[sub] + (sub >= n0) * (int(frames[-1]) + blocked + 2)
    step = np.append(np.searchsorted(axis, axis + (blocked + 1)), len(sub))
    marked = np.zeros(len(sub) + 1, dtype=bool)
    marked[0] = True
    marked[1:-1] = ~close[sub[1:] - 1]
    # marked holds every event fewer than 2**r steps down a chain from a
    # cluster start and step[i] is 2**r steps on from i; stop when a round
    # marks nothing new, so marked is closed under step
    while True:
        reached = step[marked]
        if marked[reached].all():
            break
        marked[reached] = True
        step = step[step]
    keep[order[sub]] = marked[:-1]
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
_N_EVENTS = len(_EVENT_STATES)
_EVENT_BETA, _EVENT_SIGNAL, _EVENT_DARK0, _EVENT_DARK1 = np.array(_EVENT_STATES, dtype=np.int8).T
_EVENT_CLICK0 = (_EVENT_SIGNAL == 1) | (_EVENT_DARK0 == 1)
_EVENT_CLICK1 = (_EVENT_SIGNAL == 2) | (_EVENT_DARK1 == 1)
_EVENT_NO_SIGNAL = (_EVENT_SIGNAL == 0).astype(np.float64)
# Class and event state of each cell of a block's (3, 22) event-count
# table, in row-major order.
_CELL_CLASS = np.repeat(np.arange(3), _N_EVENTS)
_CELL_STATE = np.tile(np.arange(_N_EVENTS), 3)


class Block(NamedTuple):
    """One pulse train of one preparation setting, with its own generator.

    start_index is the global index of its first pulse in the tag record.
    """

    setting: PreparationSetting
    pulses: int
    budget: LossBudget
    switch: SwitchModel
    rng: np.random.Generator
    start_index: int = 0


def _event_probabilities(
    means,
    q_surv: list[float],
    outcomes: list[list[tuple[float, float, float]]],
    det: DetectorModel,
) -> np.ndarray:
    """(J, 3, 23) per-frame probabilities of J blocks: 22 event states, then the silent rest.

    Row c of block j is the class of mean photon number means[c].  A
    Poisson(mean) pulse thinned by q_surv[j] gives a photon click with
    probability 1 - exp(-mean * q_surv[j]); the click then projects per
    outcomes[j][beta], the (P bit0, P bit1, P dropped) of its pathway, and
    flips with the intrinsic error.
    """
    e = det.intrinsic_error
    p_dark = det.dark_prob_per_window
    # The signal factor of a state is 1 - p_photon * (p0 + p1) without a
    # signal click and p_photon * P(bit) with one, written here as
    # 0 - p_photon * -P(bit), which is the same float.
    slope = np.array([
        [
            (p0 + p1, -(p0 * (1.0 - e) + p1 * e), -(p1 * (1.0 - e) + p0 * e))
            for p0, p1, _ in pathways
        ]
        for pathways in outcomes
    ])[:, _EVENT_BETA, _EVENT_SIGNAL]
    p_photon = np.array([[[-math.expm1(-mean * q)] for mean in means] for q in q_surv])
    dark = np.array([1.0 - p_dark, p_dark])
    probs = (
        0.5 * (_EVENT_NO_SIGNAL - p_photon * slope[:, None, :])
        * dark[_EVENT_DARK0] * dark[_EVENT_DARK1]
    )
    rest = [max(0.0, 1.0 - math.fsum(row)) for row in probs.reshape(-1, _N_EVENTS).tolist()]
    return np.concatenate([probs, np.reshape(rest, (len(q_surv), 3, 1))], axis=2)


def _pathway_outcomes(blocks: list[Block], det: DetectorModel) -> list[list[tuple]]:
    """Each block's (P bit0, P bit1, P dropped) in the phase, then the time pathway.

    These are outcome_probabilities(apply_switch_both_bins(state, switch),
    basis, det), computed in the same float operations in the same order,
    so each is the same float.  Only the objects are left out: each
    distinct preparation's state and each distinct switch's two bin
    efficiencies are computed once per batch, and each block then rotates
    and projects plain complex numbers.
    """
    chi = det.recombination_phase
    turn = complex(math.cos(chi), math.sin(chi))
    policy = det.stray_time_policy
    # the conjugated amplitudes of the phase-basis states of bit 0 and bit 1
    (c00, c01), (c10, c11) = (
        (b.amp_t0.conjugate(), b.amp_t1.conjugate()) for b in mub_states(Basis.PHASE)
    )
    states = {setting: setting.state() for setting in {block.setting for block in blocks}}
    etas = {switch: bin_efficiencies(switch) for switch in {block.switch for block in blocks}}
    out = []
    for block in blocks:
        q, phase = states[block.setting], block.switch.bin_phase_offset
        eta0, eta1 = etas[block.switch]
        h0, v0 = _bin_rotation(q.amp_t0, eta0, phase)
        h1, v1 = _bin_rotation(q.amp_t1, eta1, phase)
        # the detected qubit (e^{i chi} V of the early bin, H of the late
        # bin) and the crossed modes
        psi0 = v0 * turn
        stray_h = abs(h0) ** 2
        stray_v = abs(v1) ** 2
        stray = stray_h + stray_v
        phase_pathway = (
            abs(c00 * psi0 + c01 * h1) ** 2 + 0.5 * stray,
            abs(c10 * psi0 + c11 * h1) ** 2 + 0.5 * stray,
            0.0,
        )
        p0 = abs(psi0) ** 2
        p1 = abs(h1) ** 2
        if policy == "random":
            time_pathway = (p0 + 0.5 * stray, p1 + 0.5 * stray, 0.0)
        elif policy == "by_polarization":
            time_pathway = (p0 + stray_v, p1 + stray_h, 0.0)
        else:
            time_pathway = (p0, p1, stray)
        out.append([phase_pathway, time_pathway])
    return out


def _event_tables(blocks: list[Block], source: SourceConfig, det: DetectorModel) -> np.ndarray:
    """The (J, 3, 23) event probabilities of the frames of each block."""
    efficiency = det.efficiency
    q_surv = [transmittance(block.budget.path_db) * efficiency for block in blocks]
    return _event_probabilities(
        [source.mean_for(c) for c in range(3)], q_surv, _pathway_outcomes(blocks, det), det
    )


# Bits of a packed event key below the frame: the event's cell of its
# block's (3, 22) table, 0 .. 65.
_CELL_BITS = 7


def _draw_events(blocks: list[Block], source: SourceConfig, tables: np.ndarray, stride: int):
    """Each block's class totals and events, then every event sorted by frame.

    Each block draws from its own generator: its class totals, then the
    event-state counts of its three classes, then one distinct frame per
    event.  Block j's frames are then offset by j * stride, so the batch's
    frames are distinct and one sort of (frame, cell) keys packed in an
    int64 orders the batch by block, then frame.  Returns (class_totals,
    frames, ev_block, ev_cls, ev_state): class_totals is (J, 3) and the
    rest are per event, sorted, with frames offset.
    """
    n_blocks = len(blocks)
    class_totals = np.empty((n_blocks, 3), dtype=np.int64)
    per_cell = np.empty((n_blocks, 3 * _N_EVENTS), dtype=np.int64)
    frames = []
    for j, (block, table) in enumerate(zip(blocks, tables)):
        totals = block.rng.multinomial(block.pulses, source.class_probabilities)
        class_totals[j] = totals
        per_cell[j] = block.rng.multinomial(totals, table)[:, :-1].ravel()
        # choice() returns its sample in random order, so pairing it with the
        # grouped event list puts every event on a uniformly random frame.
        block_frames = block.rng.choice(block.pulses, per_cell[j].sum(), replace=False)
        block_frames += j * stride
        frames.append(block_frames)
    keys = np.concatenate(frames)
    keys <<= _CELL_BITS
    keys |= np.repeat(np.tile(np.arange(3 * _N_EVENTS), n_blocks), per_cell.ravel())
    keys.sort()
    cell = keys & ((1 << _CELL_BITS) - 1)
    keys >>= _CELL_BITS
    # sorted, the events of block j are the j-th run of per_cell[j].sum()
    ev_block = np.repeat(np.arange(n_blocks), per_cell.sum(axis=1))
    return class_totals, keys, ev_block, _CELL_CLASS[cell], _CELL_STATE[cell]


def _double_click_policy(
    blocks: list[Block],
    ev_block: np.ndarray,
    ev_state: np.ndarray,
    keep: np.ndarray,
    det: DetectorModel,
):
    """(click0, click1, counted, bit) of the events dead time kept.

    Each block draws a coin for each of its surviving doubles only.
    """
    click0 = _EVENT_CLICK0[ev_state] & keep
    click1 = _EVENT_CLICK1[ev_state] & keep
    bit = click1.astype(np.int8)
    if det.double_click_policy == "random":
        counted = click0 | click1
        double = click0 & click1
        doubles = np.bincount(ev_block[double], minlength=len(blocks)).tolist()
        coins = [block.rng.random(k) for block, k in zip(blocks, doubles)]
        bit[double] = np.concatenate(coins) < 0.5
    else:
        counted = click0 ^ click1
    return click0, click1, counted, bit


def _tally(
    blocks: list[Block],
    class_totals: np.ndarray,
    ev_block: np.ndarray,
    ev_cls: np.ndarray,
    beta: np.ndarray,
    bit: np.ndarray,
    counted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each block's counted events and pulses sent: (J, 3, 2, 2, 2, 2) and (J, 3, 2, 2) arrays."""
    n_blocks = len(blocks)
    cell = ev_block * 12 + ev_cls * 4 + beta * 2 + bit
    tallied = np.bincount(cell[counted], minlength=12 * n_blocks).reshape(n_blocks, 3, 2, 2)
    j = np.arange(n_blocks)
    alpha = [int(block.setting.basis) for block in blocks]
    i = [block.setting.bit for block in blocks]
    counts = np.zeros((n_blocks, 3, 2, 2, 2, 2), dtype=np.int64)
    counts[j, :, alpha, i] = tallied
    sent = np.zeros((n_blocks, 3, 2, 2), dtype=np.int64)
    sent[j, :, alpha, i] = class_totals
    return counts, sent


def _tags_and_ledger(
    block: Block,
    class_totals: np.ndarray,
    frames: np.ndarray,
    ev_cls: np.ndarray,
    beta: np.ndarray,
    click0: np.ndarray,
    click1: np.ndarray,
    det: DetectorModel,
    layout: WindowLayout,
) -> tuple[TimeTags, PulseLedger]:
    """The physical click record and the sender's ledger of one block."""
    n, rng = block.pulses, block.rng
    # Silent frames take the remaining class totals in random order.  An
    # intp array is shuffled with the same draws as any other and faster.
    cls = np.empty(n, dtype=np.int8)
    silent = np.ones(n, dtype=bool)
    silent[frames] = False
    rest = np.repeat(np.arange(3), class_totals - np.bincount(ev_cls, minlength=3))
    rng.shuffle(rest)
    cls[silent] = rest
    cls[frames] = ev_cls

    # Window 0's jitter is drawn before window 1's; the tags are then
    # ordered by pulse, then time.
    n_clicks = (int(click0.sum()), int(click1.sum()))
    idx = np.concatenate([np.flatnonzero(click0), np.flatnonzero(click1)])
    centers = np.reshape(layout.centers_ps, (2, 2))[beta[idx], np.repeat([0, 1], n_clicks)]
    jitter = [rng.normal(0.0, det.jitter_sigma_ps, size=k) if k else np.zeros(0) for k in n_clicks]
    ts = centers + np.concatenate(jitter)
    pulse = block.start_index + frames[idx]
    order = np.lexsort((ts, pulse))
    tags = TimeTags(pulse[order], beta[idx][order], ts[order])
    ledger = PulseLedger(
        block.start_index,
        cls,
        np.full(n, int(block.setting.basis), dtype=np.int8),
        np.full(n, block.setting.bit, dtype=np.int8),
    )
    return tags, ledger


def simulate_blocks(
    blocks: list[Block],
    source: SourceConfig,
    det: DetectorModel,
    *,
    collect_tags: bool = False,
    layout: WindowLayout | None = None,
) -> Iterator[tuple]:
    """Simulate a batch of pulse trains, each drawing only its events from its own stream.

    Frames are independent, so a frame's fate is one of 22 event states
    (pathway, signal bit after the intrinsic flip, dark click per window;
    see `_event_probabilities`) or silence.  Each block draws its class
    totals, then per class the multinomial counts of the event states, and
    places the events on distinct frames drawn uniformly without
    replacement.  Dead time then drops clicks on a busy detector, and the
    double-click policy draws a coin for each surviving double only.

    Only the draws are made block by block, each from the block's own
    generator and in the order above.  The stages that draw nothing run
    once for the whole batch, so a block's result does not depend on the
    batch it is in: the event tables (`_pathway_outcomes` computes each
    distinct preparation and switch once), one sort of the batch's events
    as packed (frame, cell) int64 keys, the dead-time pass (pointer
    doubling over the clusters of close clicks, no per-event loop), the
    click masks and the tally.

    Yields (counts, pulses_sent, record) per block, in order: the block's
    SessionCounts arrays, and with collect_tags its (tags, ledger), where
    tags are the physical click record (doubles keep both clicks, no policy
    applied), else None.  The ledger and tag draws of a block come after
    every draw its counts depend on, so the counts do not depend on
    collect_tags; they are made as the block is yielded, so a consumer can
    drop one block's record before the next one's is drawn.
    """
    longest = max(block.pulses for block in blocks)
    # A block's events are less than `longest` frames apart, so a longer
    # dead time drops no more of them.  With the offsets one stride apart,
    # no dead-time cluster reaches from one block into the next.
    blocked = min(_dead_frames(det, source), longest)
    stride = longest + blocked + 1
    tables = _event_tables(blocks, source, det)
    class_totals, frames, ev_block, ev_cls, ev_state = _draw_events(blocks, source, tables, stride)
    beta = _EVENT_BETA[ev_state]
    keep = _prune_dead_time_clusters(frames, beta, blocked)
    click0, click1, counted, bit = _double_click_policy(blocks, ev_block, ev_state, keep, det)
    counts, sent = _tally(blocks, class_totals, ev_block, ev_cls, beta, bit, counted)
    bounds = np.searchsorted(ev_block, np.arange(len(blocks) + 1)).tolist()
    layout = layout or WindowLayout()
    for j, block in enumerate(blocks):
        part = slice(bounds[j], bounds[j + 1])
        yield counts[j], sent[j], _tags_and_ledger(
            block, class_totals[j], frames[part] - j * stride, ev_cls[part], beta[part],
            click0[part], click1[part], det, layout,
        ) if collect_tags else None


def simulate_block(
    prep: PreparationSetting,
    n_pulses: int,
    source: SourceConfig,
    budget: LossBudget,
    switch: SwitchModel,
    det: DetectorModel,
    rng: np.random.Generator,
) -> SessionCounts:
    """The counts of a pulse train of one preparation setting: simulate_blocks of one block."""
    if n_pulses < 0:
        raise InvalidInputError("n_pulses must be non-negative")
    block = Block(prep, int(n_pulses), budget, switch, rng)
    ((counts, sent, _),) = simulate_blocks([block], source, det)
    return SessionCounts(counts, sent)
