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

import functools
import io
import math
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError, _count
from .qubit import Basis, PreparationSetting, mub_states
from .source import IntensityClass, LossBudget, SourceConfig, transmittance
from .switch import (
    POL_H,
    POL_V,
    SwitchedState,
    SwitchModel,
    apply_switch_both_bins,
)

# Path difference of the polarizing delayed interferometer: 0.88 m of fiber
# free-space-equivalent delay between the two polarization arms.
INTERFEROMETER_DELAY_PS = 0.88 / 299792458.0 * 1e12

# Electronic offset separating the two basis groups on the shared time axis.
BASIS_GROUP_OFFSET_PS = 8000.0

# Slot centers of the four windows, index basis * 2 + bit: (phase bit0,
# phase bit1, time bit0, time bit1).  The closest two are one delay apart.
WINDOW_CENTERS_PS = (0.0, INTERFEROMETER_DELAY_PS, BASIS_GROUP_OFFSET_PS,
                     BASIS_GROUP_OFFSET_PS + INTERFEROMETER_DELAY_PS)


_STRAY_POLICIES = ("random", "discard", "by_polarization")
_DOUBLE_POLICIES = ("random", "discard")


@dataclass(frozen=True)
class DetectorModel:
    """Detector and measurement-chain imperfections.

    The detection efficiency is not here: it is LossBudget.detector_db,
    applied once with the rest of the loss budget.

    dark_count_rate_hz: dark rate per detector; a window collects a dark
        click with probability rate * WindowLayout.width_ps, the width the
        tags are windowed over (see dark_prob_per_window).
    jitter_sigma_ps: Gaussian timing jitter applied to time tags.  A tag,
        a center plus a jitter draw, is rounded from a float64, exact only
        below 2**53 ps, so the last center plus 64 sigma stays below it.
    dead_time_ns: detector dead time after a recorded click.
    intrinsic_error: probability a detected photon records the wrong bit
        (residual interference contrast, alignment); sets the error floor.
    double_click_policy: "random" squashes a double click to a uniform bit,
        "discard" drops the event.
    stray_time_policy: handling of crossed-polarization modes in the time
        pathway ("random", "discard", or "by_polarization").
    recombination_phase: the one relative phase (rad) between the switched
        early-bin V arm and the unswitched late-bin H arm where the
        phase-basis recombination interferes them; the switch adds none.
    """

    dark_count_rate_hz: float = 100.0
    jitter_sigma_ps: float = 150.0
    dead_time_ns: float = 50.0
    intrinsic_error: float = 0.008
    double_click_policy: str = "random"
    stray_time_policy: str = "random"
    recombination_phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dark_count_rate_hz", "jitter_sigma_ps", "dead_time_ns"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInputError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise InvalidInputError("intrinsic_error must lie in [0, 0.5]")
        if self.double_click_policy not in _DOUBLE_POLICIES:
            raise InvalidInputError(f"double_click_policy must be one of {_DOUBLE_POLICIES}")
        if self.stray_time_policy not in _STRAY_POLICIES:
            raise InvalidInputError(f"stray_time_policy must be one of {_STRAY_POLICIES}")
        if not math.isfinite(self.recombination_phase):
            raise InvalidInputError("recombination_phase must be finite")
        if not max(WINDOW_CENTERS_PS) + 64.0 * self.jitter_sigma_ps < 2.0**53:
            raise InvalidInputError(
                "jitter_sigma_ps puts time tags at or beyond 2**53 ps, where float64 "
                "no longer rounds them to whole int64 picoseconds"
            )


@dataclass(frozen=True)
class WindowLayout:
    """The common width of the four windows centered on WINDOW_CENTERS_PS.

    At most INTERFEROMETER_DELAY_PS, the closest spacing of two centers,
    so no two windows overlap.
    """

    width_ps: float = 800.0

    def __post_init__(self) -> None:
        if not 0.0 < self.width_ps <= INTERFEROMETER_DELAY_PS:
            raise ConfigError(
                f"width_ps must be positive and at most {INTERFEROMETER_DELAY_PS} ps, "
                "the spacing of neighbouring slot centers"
            )


def dark_prob_per_window(det: DetectorModel, layout: WindowLayout) -> float:
    """The probability that one window of `layout` collects a dark click of `det`.

    The dark rate times the window width, the width the tags are windowed
    over; a probability above 1 is refused.
    """
    p = det.dark_count_rate_hz * (layout.width_ps / 1e3) * 1e-9
    if not p <= 1.0:
        raise InvalidInputError(
            "detector.dark_count_rate_hz * layout.width_ps gives a dark probability "
            f"per window of {p}, above 1"
        )
    return p


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

    The effective detected qubit is (e^{i chi} * amp(t0, V), amp(t1, H)),
    with chi the recombination phase, projected onto the basis pair of
    mub_states(basis).  Crossed-mode amplitude is handled per the
    detector's stray policy in the time pathway and projects 50:50 in
    superposition pathways.
    """
    chi = det.recombination_phase
    psi0 = state.amp(0, POL_V) * complex(math.cos(chi), math.sin(chi))
    psi1 = state.amp(1, POL_H)
    stray_h = abs(state.amp(0, POL_H)) ** 2
    stray_v = abs(state.amp(1, POL_V)) ** 2
    stray = stray_h + stray_v

    b0, b1 = mub_states(basis)
    p0 = abs(b0.amp_t0.conjugate() * psi0 + b0.amp_t1.conjugate() * psi1) ** 2
    p1 = abs(b1.amp_t0.conjugate() * psi0 + b1.amp_t1.conjugate() * psi1) ** 2
    policy = det.stray_time_policy if basis == Basis.TIME else "random"
    if policy == "by_polarization":
        return p0 + stray_v, p1 + stray_h, 0.0
    if policy == "discard":
        return p0, p1, stray
    return p0 + 0.5 * stray, p1 + 0.5 * stray, 0.0


def _whole(values, what: str, must_be: str = "whole numbers") -> np.ndarray:
    """`values` as int64; a fraction, NaN, ±inf or a value beyond int64 is refused."""
    values = np.asarray(values)
    if values.dtype.kind == "u" and values.size and values.max() > _INT64_MAX:
        values = values.astype(np.float64)  # at least 2**63, so refused below
    if values.dtype.kind not in "iu":
        values = values.astype(np.float64)
        # NaN fails both bounds, and ±inf one of them
        if not np.all((values >= -(2.0**63)) & (values < 2.0**63) & (np.rint(values) == values)):
            raise InvalidInputError(f"{what} must be {must_be} within int64")
    return values.astype(np.int64, copy=False)


class PulseLedger:
    """Sender-side record of a pulse range: class and preparation per pulse.

    Covers pulses [start_index, start_index + len); accumulate() needs it
    to attribute windowed clicks to (class, alpha, i).  Every class index
    is 0, 1 or 2 and every alpha and bit 0 or 1, so each is one digit in
    the ledger file, and the ledger holds one byte per pulse: the int8
    code class * 4 + alpha * 2 + bit.  Values are range-checked in the
    input's own dtype (int64 for input that is not integer), before
    narrowing, so 258 cannot wrap to 2.  A fraction, in start_index or in
    a column, is refused, not truncated.  class_idx, alpha and bit are
    int8 columns derived from the code on each access, and read-only.
    """

    def __init__(self, start_index, class_idx, alpha, bit) -> None:
        n = len(class_idx)
        if len(alpha) != n or len(bit) != n:
            raise InvalidInputError("ledger arrays must have equal length")
        self.start_index = int(_whole(start_index, "start_index", "a whole number"))
        if self.start_index < 0:
            raise InvalidInputError("start_index must be non-negative")
        columns = []
        for name, values, top in (("class_idx", class_idx, 2), ("alpha", alpha, 1), ("bit", bit, 1)):
            values = np.asarray(values)
            if values.dtype.kind not in "iu":
                values = _whole(values, f"ledger {name} values")
            if n and (values.min() < 0 or values.max() > top):
                raise InvalidInputError(f"ledger {name} values must lie in 0..{top}")
            columns.append(values.astype(np.int8, copy=False))
        cls, alpha, bit = columns
        self._code = cls * 4 + alpha * 2 + bit

    @classmethod
    def _of_code(cls, start_index: int, code: np.ndarray) -> "PulseLedger":
        """The ledger of an int8 code column whose values are known to lie in 0..11."""
        ledger = cls.__new__(cls)
        ledger.start_index, ledger._code = start_index, code
        return ledger

    def __len__(self) -> int:
        return len(self._code)

    def _column(self, shift: int, mask: int) -> np.ndarray:
        column = (self._code >> shift) & mask
        column.flags.writeable = False
        return column

    @property
    def class_idx(self) -> np.ndarray:
        return self._column(2, 3)

    @property
    def alpha(self) -> np.ndarray:
        return self._column(1, 1)

    @property
    def bit(self) -> np.ndarray:
        return self._column(0, 1)


@dataclass
class TimeTags:
    """The click record as columns: one row per click, in any order.

    Row k says detector detector_id[k] (0 the phase pathway, 1 the time
    pathway) clicked timestamp_ps[k] whole picoseconds after the epoch of
    pulse pulse_index[k].  Both are int64.  A value with a fraction, in
    any column, is refused, not truncated.  detector_id is range-checked,
    then held as int8, so 256 cannot wrap to 0.
    """

    pulse_index: np.ndarray
    detector_id: np.ndarray
    timestamp_ps: np.ndarray

    def __post_init__(self) -> None:
        self.pulse_index = _whole(self.pulse_index, "pulse_index")
        detector_id = _whole(self.detector_id, "detector_id")
        self.timestamp_ps = _whole(self.timestamp_ps, "timestamp_ps", "whole picoseconds")
        n = len(self.pulse_index)
        if len(detector_id) != n or len(self.timestamp_ps) != n:
            raise InvalidInputError("tag arrays must have equal length")
        if np.any(self.pulse_index < 0):
            raise InvalidInputError("pulse_index must be non-negative")
        if np.any((detector_id != 0) & (detector_id != 1)):
            raise InvalidInputError("detector_id must be 0 or 1")
        self.detector_id = detector_id.astype(np.int8)

    def __len__(self) -> int:
        return len(self.pulse_index)


def _window_edges(layout: WindowLayout) -> tuple[np.ndarray, np.ndarray]:
    """The first and last whole picosecond of each window, found exactly.

    Window k holds the t with |t - WINDOW_CENTERS_PS[k]| <= width / 2.
    Its edges are found in Python integers from the floats' exact ratios,
    so a tag on an edge is placed exactly.  A window too narrow to hold a
    whole picosecond gets first > last.
    """
    h, d = float(layout.width_ps).as_integer_ratio()
    d *= 2  # width / 2 == h / d
    first, last = [], []
    for center in WINDOW_CENTERS_PS:
        a, b = float(center).as_integer_ratio()
        first.append(-((h * b - a * d) // (b * d)))  # ceil((a / b) - (h / d))
        last.append((a * d + h * b) // (b * d))
    return np.array(first, dtype=np.int64), np.array(last, dtype=np.int64)


def accumulate(
    tags: TimeTags,
    layout: WindowLayout,
    ledger: PulseLedger,
) -> SessionCounts:
    """Bin time tags into windows and tally counts against the ledger.

    Each tag lands in the window containing its timestamp, edges
    included, or is discarded; the windows' edges are whole picoseconds
    found exactly (`_window_edges`), so every int64 timestamp is placed
    exactly.
    Pulses with more than one windowed tag are discarded (deterministic, so
    pieces merge associatively).  pulses_sent comes from the ledger, so
    accumulating disjoint (tags, ledger) pieces and summing equals
    accumulating the concatenation.
    """
    out = SessionCounts.zeros()
    sent = out.pulses_sent.reshape(-1)
    code = ledger._code
    # a count of each of the 12 codes, 2**16 pulses at a time
    for lo in range(0, len(code), 1 << 16):
        part = code[lo : lo + (1 << 16)]
        for v in range(12):
            sent[v] += np.count_nonzero(part == v)

    pulse, ts = tags.pulse_index, tags.timestamp_ps
    outside = (pulse < ledger.start_index) | (pulse >= ledger.start_index + len(ledger))
    if outside.any():
        raise InvalidInputError(
            f"tag pulse_index {pulse[outside.argmax()]} outside ledger range"
        )
    first, last = _window_edges(layout)
    in_window = (ts[:, None] >= first) & (ts[:, None] <= last)
    hit = in_window.any(axis=1)
    window = in_window.argmax(axis=1)[hit]
    pulses, first, n_windowed = np.unique(pulse[hit], return_index=True, return_counts=True)
    single = n_windowed == 1
    row = pulses[single] - ledger.start_index
    window = window[first[single]]
    np.add.at(out.counts.reshape(12, 2, 2), (code[row], window // 2, window % 2), 1)
    return out


TAG_HEADER = "pulse_index,detector_id,timestamp_ps"
LEDGER_HEADER = "pulse_index,intensity_class,alpha,bit"
_INT64_MAX = int(np.iinfo(np.int64).max)

# Pulse indices in an aligned run of _RUN share all but their last four
# digits, which the ledger writer copies from one template per run.
_RUN = 10_000
_ROW_TAIL = np.frombuffer(b",0,0,0\n", dtype=np.uint8)

# Ledger rows formatted or read back at a time, a whole number of runs;
# bounds the memory of each whatever the ledger length.  Tag rows are
# formatted in batches of the same size.
LEDGER_CHUNK_ROWS = 2 * _RUN

# A whitespace-only line, and one field of a tag or ledger row.
_BLANK_LINE = re.compile(r"(?m)^[ \t\v\f]+$")
_INT_FIELD = r"[ \t]*[+-]?\d+[ \t]*"


def _load_rows(f, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # loadtxt warns on input without rows; the caller reports it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(f, delimiter=",", dtype=dtype, ndmin=1, comments=None)


def _read_rows(path, header: str, what: str) -> np.ndarray:
    """The rows of a tag or ledger file: one int64 field per name in `header`.

    One loadtxt call parses the body.  loadtxt rejects whitespace-only
    lines, which the formats allow, and numbers rows inconsistently in its
    errors; when it refuses the body, the text is re-read with
    whitespace-only lines emptied and the first line that is not empty or
    comma-separated integers (a float timestamp, say) is reported by line.
    """
    names = header.split(",")
    dtype = np.dtype([(name, np.int64) for name in names])
    bad_line = re.compile(rf"(?m)^(?!{_INT_FIELD}(?:,{_INT_FIELD}){{{len(names) - 1}}}$).+$")
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

    Every field is a decimal integer; timestamps are whole picoseconds.
    `path` may also be a binary file open for writing: the rows are
    appended, after the header if the file is still empty.  Rows are
    formatted at most LEDGER_CHUNK_ROWS at a time.
    """
    with _output(path) as f:
        if f.tell() == 0:
            f.write(TAG_HEADER.encode("ascii") + b"\n")
        for lo in range(0, len(tags), LEDGER_CHUNK_ROWS):
            part = slice(lo, lo + LEDGER_CHUNK_ROWS)
            # the columns interleaved row by row, so one `%` formats the chunk
            rows = np.stack([getattr(tags, name)[part] for name in TAG_HEADER.split(",")], 1)
            f.write((("%d,%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist())).encode("ascii"))


def read_time_tags(path) -> TimeTags:
    """Read a tag file of integers; one loadtxt call parses every row."""
    rows = _read_rows(path, TAG_HEADER, "tag file")
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
    with _output(path) as f:
        if f.tell() == 0:
            f.write(LEDGER_HEADER.encode("ascii") + b"\n")
        for lo, hi, rows in _ledger_chunks(ledger.start_index, ledger.start_index + len(ledger)):
            # each code's class, alpha and bit added to its row's "0"s
            code = ledger._code[lo:hi].view(np.uint8)
            rows[:, -6] += code >> 2
            rows[:, -4] += (code >> 1) & 1
            rows[:, -2] += code & 1
            f.write(rows)


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
    code = np.empty(index - start, dtype=np.int8)
    digits = np.empty((3, LEDGER_CHUNK_ROWS), dtype=np.uint8)
    f.seek(pos)
    for lo, hi, rows in _ledger_chunks(start, index):
        data = f.read(rows.nbytes)
        if len(data) != rows.nbytes:
            return None
        values = digits[:, : hi - lo]
        values[...] = np.frombuffer(data, np.uint8).reshape(rows.shape)[:, -6:-1:2].T
        values -= ord("0")
        if values[0].max() > 2 or values[1:].max() > 1:
            return None
        for digit, column in zip(rows[:, -6:-1:2].T, values):
            digit += column
        if not data.startswith(rows):
            return None
        code[lo:hi] = values[0] * 4 + values[1] * 2 + values[2]
    return PulseLedger._of_code(start, code)


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
    rows = _read_rows(path, LEDGER_HEADER, "ledger")
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
    The sampler passes only its clustered events, those within `blocked`
    frames of a neighbour on either detector: any other event is kept and
    blocks no event, so leaving it out changes no other event's fate.
    """
    keep = np.ones(len(frames), dtype=bool)
    if blocked <= 0 or len(frames) < 2:
        return keep
    # the events on detector 0, then on detector 1, each in frame order
    on_detector = [np.flatnonzero(detector == d) for d in (0, 1)]
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
# The states that click in both windows, and those that click in only
# window 0 or only window 1 (as 0/1 counts); every event state clicks.
_EVENT_DOUBLE = _EVENT_CLICK0 & _EVENT_CLICK1
_EVENT_ONLY = np.array(
    [_EVENT_CLICK0 & ~_EVENT_CLICK1, _EVENT_CLICK1 & ~_EVENT_CLICK0], dtype=np.int64
).T

# Frames per chunk of the record's placement of the silent frames'
# classes, which bounds its temporaries whatever the block length.
PLACEMENT_CHUNK_FRAMES = 1 << 14


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
    layout: WindowLayout,
) -> np.ndarray:
    """(J, 3, 23) per-frame probabilities of J blocks: 22 event states, then the silent rest.

    Row c of block j is the class of mean photon number means[c].  A
    Poisson(mean) pulse thinned by q_surv[j] gives a photon click with
    probability 1 - exp(-mean * q_surv[j]); the click then projects per
    outcomes[j][beta], the (P bit0, P bit1, P dropped) of its pathway, and
    flips with the intrinsic error.
    """
    e = det.intrinsic_error
    p_dark = dark_prob_per_window(det, layout)
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

    Each is outcome_probabilities(apply_switch_both_bins(state, switch),
    basis, det), computed block by block.
    """
    outcomes = []
    for block in blocks:
        switched = apply_switch_both_bins(block.setting.state(), block.switch)
        outcomes.append(
            [outcome_probabilities(switched, basis, det) for basis in (Basis.PHASE, Basis.TIME)]
        )
    return outcomes


def _event_tables(
    blocks: list[Block], source: SourceConfig, det: DetectorModel, layout: WindowLayout
) -> np.ndarray:
    """The (J, 3, 23) event probabilities of the frames of each block."""
    q_surv = [
        transmittance(block.budget.path_db) * transmittance(block.budget.detector_db)
        for block in blocks
    ]
    return _event_probabilities(
        [source.mean_for(c) for c in range(3)], q_surv, _pathway_outcomes(blocks, det), det, layout
    )


def _event_frames(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """The sorted event frames of n frames that each hold an event with probability q.

    Events of independent frames are a Bernoulli process, so the gaps
    between them are Geometric(q), drawn by inversion as
    1 + floor(E / lambda) with E standard exponential and
    lambda = -log1p(-q).  The frames are the gaps' running sums less one,
    cut at n.  Gaps are drawn in rounds sized to cover the frames left
    with a wide margin, until their sum reaches n; one round almost
    always does.  q = 0 draws nothing and gives no events, and q = 1
    draws nothing and makes every frame an event.
    """
    if q <= 0.0 or n == 0:
        return np.zeros(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(n, dtype=np.int64)
    lam = -math.log1p(-q)
    rounds, reach = [], 0
    while reach < n:
        left = n - reach
        mean = left * q
        gaps = rng.standard_exponential(min(left, int(mean + 6.0 * math.sqrt(mean) + 16.0)))
        gaps /= lam
        # a gap longer than the frames left ends the train: capping it
        # moves no frame below n
        np.minimum(gaps, left, out=gaps)
        np.floor(gaps, out=gaps)
        gaps += 1
        # summed in place, in float64, which holds whole numbers exactly
        # below 2**53; one buffer per round keeps the block's peak low
        frames = np.cumsum(gaps, out=gaps)
        frames += reach - 1
        rounds.append(frames)
        reach = int(frames[-1]) + 1
    frames = rounds[0] if len(rounds) == 1 else np.concatenate(rounds)
    return frames[: np.searchsorted(frames, n)].astype(np.int64)


def _draw_events(
    blocks: list[Block], source: SourceConfig, tables: np.ndarray, blocked: int, stride: int
):
    """Each block's draws before dead time, and the batch's clustered events.

    Each block draws from its own generator: its event frames
    (`_event_frames`, with q the event probability of a frame of any
    class), then one uniform per clustered event, which picks its cell
    (class, event state) by inversion, one multinomial of the cells of the
    unclustered events and one multinomial of the classes of the silent
    frames.  An event is clustered when a neighbouring event, on either
    detector, is at most `blocked` frames away; only clustered events can
    lose a click to dead time or block one.  Returns (class_totals,
    frames, clustered, unclustered, cl_frames, cl_block, cl_cell):
    class_totals (J, 3); per block its sorted event frames and their
    clustered mask; the (J, 66) cell counts of the unclustered events; and
    per clustered event of the batch, in block then frame order, its frame
    offset by block * stride, its block and its cell of the block's
    (3, 22) table.
    """
    n_blocks = len(blocks)
    # P(class, cell) of a frame: (J, 66) event cells and (J, 3) silent classes
    weights = np.array(source.class_probabilities)[:, None] * tables
    event_w = weights[:, :, :-1].reshape(n_blocks, 3 * _N_EVENTS)
    silent_w = weights[:, :, -1]
    event_mass = [math.fsum(row) for row in event_w.tolist()]
    silent_mass = [math.fsum(row) for row in silent_w.tolist()]
    frames = [
        _event_frames(block.rng, block.pulses, e / (e + s))
        for block, e, s in zip(blocks, event_mass, silent_mass)
    ]

    sizes = [len(f) for f in frames]
    bounds = np.cumsum([0, *sizes])
    # one axis for the batch, each block's frames one stride on from the
    # last; a lone block's frames are used as they are, not copied
    offset = np.concatenate(frames) if n_blocks > 1 else frames[0]
    for j in range(1, n_blocks):
        offset[bounds[j] : bounds[j + 1]] += j * stride
    near = np.diff(offset) <= blocked
    clustered = np.zeros(len(offset), dtype=bool)
    clustered[1:] = near
    clustered[:-1] |= near
    cl_index = np.flatnonzero(clustered)
    cl_block = np.searchsorted(bounds, cl_index, side="right") - 1
    n_clustered = np.bincount(cl_block, minlength=n_blocks).tolist()

    # Events are drawn only where q > 0, so event_mass > 0, and silent
    # frames only where q < 1, so silent_mass > 0.
    cdf = np.cumsum(event_w, axis=1)
    cells = [np.zeros(0, dtype=np.intp)]
    unclustered = np.zeros((n_blocks, 3 * _N_EVENTS), dtype=np.int64)
    silent = np.zeros((n_blocks, 3), dtype=np.int64)
    for j, block in enumerate(blocks):
        rng, k = block.rng, n_clustered[j]
        if k:
            cells.append(np.searchsorted(cdf[j], rng.random(k) * cdf[j, -1], side="right"))
        if sizes[j] > k:
            unclustered[j] = rng.multinomial(sizes[j] - k, event_w[j] / event_mass[j])
        if block.pulses > sizes[j]:
            silent[j] = rng.multinomial(block.pulses - sizes[j], silent_w[j] / silent_mass[j])
    # u * cdf[-1] can round up to cdf[-1]: that draw is the last cell of weight
    last = 3 * _N_EVENTS - 1 - np.argmax(event_w[:, ::-1] > 0, axis=1)
    cl_cell = np.minimum(np.concatenate(cells), last[cl_block])
    cl_classes = np.bincount(cl_block * 3 + _CELL_CLASS[cl_cell], minlength=3 * n_blocks)
    class_totals = (
        silent + unclustered.reshape(n_blocks, 3, _N_EVENTS).sum(axis=2)
        + cl_classes.reshape(n_blocks, 3)
    )
    masks = [clustered[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return class_totals, frames, masks, unclustered, offset[cl_index], cl_block, cl_cell


def _double_click_policy(
    blocks: list[Block], cells: np.ndarray, det: DetectorModel
) -> np.ndarray:
    """The counted events of the kept cells by bit: (J, 3, 22, 2), [block][class][state][bit].

    `cells` holds the (J, 66) cell counts of the events dead time kept.
    A single click counts with its window's bit.  Under the "random"
    policy a block that holds any double draws one binomial(count, 0.5),
    the bit-1 share, for each double cell; "discard" drops every double
    and draws nothing.
    """
    cells = cells.reshape(len(blocks), 3, _N_EVENTS)
    by_bit = cells[..., None] * _EVENT_ONLY
    if det.double_click_policy == "random":
        pairs = cells[:, :, _EVENT_DOUBLE]
        ones = np.zeros_like(pairs)
        for j, (block, any_pairs) in enumerate(zip(blocks, pairs.any(axis=(1, 2)).tolist())):
            if any_pairs:
                ones[j] = block.rng.binomial(pairs[j], 0.5)
        by_bit[:, :, _EVENT_DOUBLE, 0] = pairs - ones
        by_bit[:, :, _EVENT_DOUBLE, 1] = ones
    return by_bit


def _tally(
    blocks: list[Block], class_totals: np.ndarray, by_bit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each block's counted events and pulses sent: (J, 3, 2, 2, 2, 2) and (J, 3, 2, 2) arrays.

    `by_bit` is `_double_click_policy`'s count per cell and bit, summed
    here over the event states of each pathway.
    """
    n_blocks = len(blocks)
    # the event states of pathway 0 come first, then those of pathway 1
    tallied = by_bit.reshape(n_blocks, 3, 2, _N_EVENTS // 2, 2).sum(axis=3)
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
    clustered: np.ndarray,
    cl_cell: np.ndarray,
    cl_keep: np.ndarray,
    unclustered: np.ndarray,
    det: DetectorModel,
) -> tuple[TimeTags, PulseLedger]:
    """The physical click record and the sender's ledger of one block.

    `frames` are the block's sorted event frames.  The `clustered` ones
    have their cells in `cl_cell` and their dead-time fate in `cl_keep`;
    `unclustered` counts the cells of the rest, which dead time keeps.
    The ledger's code column is the one pulse-sized array made: the
    silent frames' classes are placed in it chunk by chunk, so every
    other temporary is per event or per chunk.
    """
    n, rng = block.pulses, block.rng
    # One shuffle arranges the unclustered cells over the unclustered
    # frames, so every arrangement is equally likely.
    labels = np.repeat(np.arange(3 * _N_EVENTS), unclustered)
    rng.shuffle(labels)
    cell = np.empty(len(frames), dtype=np.intp)
    cell[clustered] = cl_cell
    cell[~clustered] = labels
    kept = np.ones(len(frames), dtype=bool)
    kept[clustered] = cl_keep
    ev_cls, state = _CELL_CLASS[cell], _CELL_STATE[cell]
    beta = _EVENT_BETA[state]
    click0 = _EVENT_CLICK0[state] & kept
    click1 = _EVENT_CLICK1[state] & kept

    # The ledger code of every pulse: the largest class the events left
    # over, fill, written over by the events' classes, then by the other
    # two, a and b.  Each chunk of PLACEMENT_CHUNK_FRAMES frames takes a
    # hypergeometric share of the (a, b, fill) silent frames not yet
    # placed, and one ordered sample of the chunk's silent frames places
    # its a, then its b, so every arrangement over the silent frames is
    # equally likely.
    setting = int(block.setting.basis) * 2 + block.setting.bit
    left = class_totals - np.bincount(ev_cls, minlength=3)
    fill = int(left.argmax())
    a, b = (c for c in range(3) if c != fill)
    code = np.full(n, fill * 4 + setting, dtype=np.int8)
    code[frames] = ev_cls * 4 + setting
    left = left[[a, b, fill]]
    edges = [*range(0, n, PLACEMENT_CHUNK_FRAMES), n]
    ends = np.searchsorted(frames, edges).tolist()
    for lo, hi, first, last in zip(edges, edges[1:], ends, ends[1:]):
        if left[0] + left[1] == 0:
            break
        quiet = hi - lo - (last - first)
        if quiet == 0:
            continue
        k_a, k_b, _ = rng.multivariate_hypergeometric(left, quiet, method="marginals").tolist()
        left -= (k_a, k_b, quiet - k_a - k_b)
        if k_a + k_b == 0:
            continue
        silent = np.ones(hi - lo, dtype=bool)
        silent[frames[first:last] - lo] = False
        placed = lo + np.flatnonzero(silent)[rng.choice(quiet, k_a + k_b, replace=False)]
        code[placed[:k_a]] = a * 4 + setting
        code[placed[k_a:]] = b * 4 + setting

    # Window 0's jitter is drawn before window 1's; the tags are then
    # ordered by pulse, then time.  A pulse has at most one tag per window,
    # both on its pathway's detector, so after a stable sort by pulse only
    # the timestamps of a pulse's two tags may be out of order.
    n_clicks = (int(click0.sum()), int(click1.sum()))
    idx = np.concatenate([np.flatnonzero(click0), np.flatnonzero(click1)])
    centers = np.reshape(WINDOW_CENTERS_PS, (2, 2))[beta[idx], np.repeat([0, 1], n_clicks)]
    jitter = [rng.normal(0.0, det.jitter_sigma_ps, size=k) if k else np.zeros(0) for k in n_clicks]
    # a time tagger's whole picoseconds, rounded once here
    ts = np.rint(centers + np.concatenate(jitter)).astype(np.int64)
    pulse = block.start_index + frames[idx]
    order = np.argsort(pulse, kind="stable")
    pulse, ts = pulse[order], ts[order]
    swap = np.flatnonzero((pulse[1:] == pulse[:-1]) & (ts[1:] < ts[:-1]))
    ts[swap], ts[swap + 1] = ts[swap + 1], ts[swap]
    tags = TimeTags(pulse, beta[idx][order], ts)
    return tags, PulseLedger._of_code(block.start_index, code)


def simulate_blocks(
    blocks: list[Block], source: SourceConfig, det: DetectorModel, layout: WindowLayout
) -> list[tuple]:
    """Simulate a batch of pulse trains, each drawing only its events from its own stream.

    Frames are independent, so a frame's fate is one of 22 event states
    (pathway, signal bit after the intrinsic flip, dark click per window;
    see `_event_probabilities`) or silence, and with its class one of 66
    event cells or a silent frame of one of 3 classes.  An event is
    clustered when another event, on either detector, lies at most the
    dead time (`blocked` frames) away.  Each block draws from its own
    generator, in this order:

    1. its event frames, a Bernoulli process of q = sum over classes c of
       P(c) * P(event | c), from the block's (3, 23) table (the event
       cells' share of the table weighted by P(c)): the frames are
       cumsum(1 + floor(E / lambda)) - 1 with E = standard_exponential(m)
       and lambda = -log1p(-q), cut at n, with more gaps drawn while their
       sum falls short of n;
    2. one cell per clustered event, i.i.d. from P(cell | event); one
       multinomial of the unclustered events over the 66 cells; one
       multinomial of the silent frames over P(class | silent).  The class
       totals are the sums of these;
    3. (after the batch's dead-time pass) one binomial(count, 0.5) per
       double cell of the kept events, under the "random" double-click
       policy only;
    4. (only when its record is called) one shuffle that arranges the
       unclustered cells over the unclustered frames; then, per chunk of
       PLACEMENT_CHUNK_FRAMES frames that holds silent frames while
       either of the two smaller left-over classes is not all placed, one
       multivariate hypergeometric of the chunk's share of the left-over
       classes and, if it holds either smaller class, one ordered sample
       of the chunk's silent frames that places them; then the jitter of
       window 0's and window 1's clicks.

    Per-event work is done for clustered events only.  An unclustered
    event is at least `blocked` + 1 frames from both of its neighbours,
    so dead time keeps it and it blocks nothing (the non-paralyzable
    model).  Dead time keeps or drops a clustered event whole, so a kept
    one is one more count in its cell: the double-click policy and the
    tally see cell counts only.

    The stages that draw nothing run once for the whole batch, so a
    block's result does not depend on the batch it is in: the event
    tables (`_pathway_outcomes` switches and projects each block's
    preparation), the dead-time pass over the clustered
    events (pointer doubling over the clusters of close clicks, no
    per-event loop; each block's frames offset one stride apart), the
    kept cell counts and the tally.

    The layout's width sets the dark probability of a window
    (`dark_prob_per_window`); the records put each tag at its window's
    center in WINDOW_CENTERS_PS, plus jitter, where `accumulate` counts it
    with the same width.

    Returns (counts, pulses_sent, record) per block, in order: the block's
    SessionCounts arrays, and record(), which draws the block's (tags,
    ledger) from the block's stream: tags are the physical click record
    (doubles keep both clicks, no policy applied).  Those draws come
    after every draw the counts depend on, so calling a record never
    changes the counts, and nothing is drawn or computed for a record that
    is not called.  Call each record at most once.
    """
    longest = max(block.pulses for block in blocks)
    # A block's events are less than `longest` frames apart, so a longer
    # dead time drops no more of them.  With the offsets one stride apart,
    # no dead-time cluster reaches from one block into the next.
    blocked = min(_dead_frames(det, source), longest)
    stride = longest + blocked + 1
    tables = _event_tables(blocks, source, det, layout)
    class_totals, frames, clustered, unclustered, cl_frames, cl_block, cl_cell = _draw_events(
        blocks, source, tables, blocked, stride
    )
    keep = _prune_dead_time_clusters(cl_frames, _EVENT_BETA[_CELL_STATE[cl_cell]], blocked)
    # a kept clustered event is one more count in its cell; `unclustered`
    # itself stays as drawn, for the records
    kept = np.bincount((cl_block * (3 * _N_EVENTS) + cl_cell)[keep], minlength=unclustered.size)
    cells = unclustered + kept.reshape(unclustered.shape)
    counts, sent = _tally(blocks, class_totals, _double_click_policy(blocks, cells, det))
    bounds = np.searchsorted(cl_block, np.arange(len(blocks) + 1)).tolist()
    out = []
    for j, block in enumerate(blocks):
        part = slice(bounds[j], bounds[j + 1])
        record = functools.partial(
            _tags_and_ledger, block, class_totals[j], frames[j], clustered[j],
            cl_cell[part], keep[part], unclustered[j], det,
        )
        out.append((counts[j], sent[j], record))
    return out


def simulate_block(
    prep: PreparationSetting,
    n_pulses: int,
    source: SourceConfig,
    budget: LossBudget,
    switch: SwitchModel,
    det: DetectorModel,
    layout: WindowLayout,
    rng: np.random.Generator,
) -> SessionCounts:
    """The counts of a pulse train of one preparation setting: simulate_blocks of one block."""
    block = Block(prep, _count(n_pulses, "n_pulses", least=0), budget, switch, rng)
    ((counts, sent, _),) = simulate_blocks([block], source, det, layout)
    return SessionCounts(counts, sent)
