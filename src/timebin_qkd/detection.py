"""Receiver simulation: projection, click model, time tags, and counting.

The receiver splits incoming light 50:50 between a time-basis and a
phase-basis pathway ending on one detector each.  A polarizing delayed
interferometer (0.88 m path difference, 2.935 ns) maps the two orthogonal
polarizations to two nanosecond slots per pathway, giving four detection
windows per repetition frame.  Counting is by pulse outcome; time tags are
an equivalent record of the same clicks for external tooling, written,
like the pulse ledger, as one header line and then fixed-size records.
The pulse ledger holds what sifting announces, the codes of the event
pulses, and the code totals of its range: it grows with the events.  Its
file holds one summary record, rewritten in place as events are
appended, so it is the same bytes however a run was cut into blocks.

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
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, _count
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
            raise InvalidInputError(
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


# What each count-tensor index (intensity, alpha, i, beta) names, and its largest value.
_INDEX_RANGES = (("intensity class", 2), ("basis", 1), ("bit", 1), ("basis", 1))


def _indices(*values) -> list[int]:
    """Count-tensor indices (intensity, alpha, i, beta), or the first of them, as ints.

    The one check of an index into SessionCounts, for its own reductions
    and for `analysis` alike.  Each must be an integer, not a bool, within
    its range, so that -1 cannot read the last entry; checked before any
    indexing.
    """
    for value, (what, top) in zip(values, _INDEX_RANGES):
        if _count(value, what, least=0) > top:
            raise InvalidInputError(f"{what} must be at most {top}")
    return [int(value) for value in values]


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

    def __add__(self, other: object) -> "SessionCounts":
        if not isinstance(other, SessionCounts):
            return NotImplemented
        return SessionCounts(self.counts + other.counts, self.pulses_sent + other.pulses_sent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionCounts):
            return NotImplemented
        return np.array_equal(self.counts, other.counts) and np.array_equal(
            self.pulses_sent, other.pulses_sent
        )

    def clicks(self, cls: IntensityClass) -> int:
        return int(self.counts[_indices(cls)[0]].sum())

    def pulses(self, cls: IntensityClass) -> int:
        return int(self.pulses_sent[_indices(cls)[0]].sum())

    def gain(self, cls: IntensityClass) -> float:
        """Recorded events per pulse sent; 0.0 for a class that was never sent."""
        n = self.pulses(cls)
        return self.clicks(cls) / n if n else 0.0

    def matched_clicks(self, cls: IntensityClass) -> int:
        c = self.counts[_indices(cls)[0]]
        return int(c[0, :, 0, :].sum() + c[1, :, 1, :].sum())

    def matched_errors(self, cls: IntensityClass) -> int:
        c = self.counts[_indices(cls)[0]]
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


def _projection(state: SwitchedState, det: DetectorModel) -> tuple[tuple, tuple]:
    """The (P bit0, P bit1, P discarded) of the phase, then the time pathway.

    Indexed by int(basis), this is the one projection of the engine and
    of the tests, before darks.

    The effective detected qubit is (e^{i chi} * amp(t0, V), amp(t1, H)),
    with chi the recombination phase, projected onto the basis pair of
    mub_states(basis) of each pathway.  The phase factor, the effective
    qubit and the crossed-mode (stray) weights do not depend on the basis,
    so both pathways are projected from one computation of them.
    Crossed-mode amplitude is handled per the detector's stray policy in
    the time pathway and projects 50:50 in superposition pathways.
    """
    chi = det.recombination_phase
    psi0 = state.amp(0, POL_V) * complex(math.cos(chi), math.sin(chi))
    psi1 = state.amp(1, POL_H)
    stray_h = abs(state.amp(0, POL_H)) ** 2
    stray_v = abs(state.amp(1, POL_V)) ** 2
    stray = stray_h + stray_v

    pathways = []
    for basis in (Basis.PHASE, Basis.TIME):
        b0, b1 = mub_states(basis)
        p0 = abs(b0.amp_t0.conjugate() * psi0 + b0.amp_t1.conjugate() * psi1) ** 2
        p1 = abs(b1.amp_t0.conjugate() * psi0 + b1.amp_t1.conjugate() * psi1) ** 2
        policy = det.stray_time_policy if basis == Basis.TIME else "random"
        if policy == "by_polarization":
            pathways.append((p0 + stray_v, p1 + stray_h, 0.0))
        elif policy == "discard":
            pathways.append((p0, p1, stray))
        else:
            pathways.append((p0 + 0.5 * stray, p1 + 0.5 * stray, 0.0))
    return tuple(pathways)


def _whole(values, what: str, must_be: str = "whole numbers") -> np.ndarray:
    """`values` as int64; a fraction, NaN, ±inf or a value beyond int64 is refused.

    A Python int beyond the float range, which numpy holds as an object,
    is refused with the rest.
    """
    values = np.asarray(values)
    if values.dtype.kind == "u" and values.size and values.max() > _INT64_MAX:
        values = values.astype(np.float64)  # at least 2**63, so refused below
    if values.dtype.kind not in "iu":
        try:
            values = values.astype(np.float64)
        except OverflowError as e:
            raise InvalidInputError(f"{what} must be {must_be} within int64") from e
        # NaN fails both bounds, and ±inf one of them
        if not np.all((values >= -(2.0**63)) & (values < 2.0**63) & (np.rint(values) == values)):
            raise InvalidInputError(f"{what} must be {must_be} within int64")
    return values.astype(np.int64, copy=False)


class PulseLedger:
    """Sender-side record of a pulse range: its code totals and its event pulses' codes.

    Covers pulses [start_index, start_index + len); accumulate() needs it
    to attribute windowed clicks to (class, alpha, i).  A code is class *
    4 + alpha * 2 + bit, 0..11.  `totals` counts the range's pulses of
    each code (12 int64); `index` holds the sorted int64 indices of the
    event pulses, the only ones a tag can fall on, and `code` their int8
    codes.  This constructor owns every ledger rule, for the engine, the
    file reader and any caller: start_index and pulses are whole numbers
    of at least 0 and 1, the last pulse index fits in int64, the totals
    are non-negative and sum to pulses, the indices lie in the range and
    strictly increase, the codes lie in 0..11 (checked in their own dtype
    before narrowing, so 268 cannot wrap to 12) and none occurs more often
    than its total; a fraction is refused.  The columns are read-only
    copies, so no later write into the caller's arrays can bypass this.
    """

    def __init__(self, start_index, pulses, totals, index, code) -> None:
        self.start_index = int(_whole(start_index, "start_index", "a whole number"))
        if self.start_index < 0:
            raise InvalidInputError("start_index must be non-negative")
        self._pulses = int(_whole(pulses, "pulses", "a whole number"))
        if self._pulses < 1:
            raise InvalidInputError("empty pulse ledger")
        end = self.start_index + self._pulses
        if end - 1 > _INT64_MAX:
            raise InvalidInputError("ledger pulse indices must lie within int64")
        totals = _whole(totals, "ledger totals")
        if totals.shape != (12,) or (totals < 0).any() or sum(totals.tolist()) != self._pulses:
            raise InvalidInputError(
                "ledger totals must be one non-negative count per code 0..11 and sum to the pulses"
            )
        index, code = np.asarray(index), np.asarray(code)
        if index.ndim != 1 or code.ndim != 1 or len(index) != len(code):
            raise InvalidInputError("ledger indices and codes must be two columns of equal length")
        index = _whole(index, "ledger pulse indices")
        if code.dtype.kind not in "iu":
            code = _whole(code, "ledger codes")
        if len(code):
            # as uint8 a negative int8 code is at least 128, so one pass checks both ends
            wide = code.view(np.uint8) if code.dtype == np.int8 else code
            if wide.max() > 11 or (wide.dtype.kind == "i" and wide.min() < 0):
                raise InvalidInputError("ledger codes must lie in 0..11")
            first, last = int(index[0]), int(index[-1])
            if (index[1:] <= index[:-1]).any() or not self.start_index <= first <= last < end:
                raise InvalidInputError("ledger indices must strictly increase within its pulses")
        self._index, self._code = _read_only(index, np.int64), _read_only(code, np.int8)
        # each code's count from the radix-sorted codes, 1 B an event where bincount takes 8
        ranked = np.sort(self._code, kind="stable")
        seen = np.diff(np.searchsorted(ranked, np.arange(13, dtype=np.int8))) > totals
        if seen.any():
            raise InvalidInputError(f"ledger code {seen.argmax()} occurs more often than its total")
        self._totals = _read_only(totals, np.int64)

    def __len__(self) -> int:
        return self._pulses

    totals = property(lambda self: self._totals)
    index = property(lambda self: self._index)
    code = property(lambda self: self._code)


def _read_only(column: np.ndarray, dtype) -> np.ndarray:
    column = column.astype(dtype)
    column.flags.writeable = False
    return column


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
    included, or is discarded.  The windows' edges are whole picoseconds
    found exactly (`_window_edges`), so every int64 timestamp is placed
    exactly: a tag's count of the eight ascending edges at or below it,
    one int8 comparison pass per edge, names its window, and a window too
    narrow to hold a whole picosecond holds no tag.
    Each tag finds its pulse among the ledger's event pulses by a binary
    search, and a tag on any other pulse is refused.  Pulses with more
    than one windowed tag are discarded (deterministic, so pieces merge
    associatively): they are the runs of equal event rows among the
    windowed tags, sorted first only when they are not already in pulse
    order, as every file the CLI writes is.  pulses_sent is the ledger's
    totals, so accumulating disjoint (tags, ledger) pieces and summing
    equals accumulating the concatenation.
    """
    out = SessionCounts.zeros()
    out.pulses_sent += ledger.totals.reshape(out.pulses_sent.shape)
    pulse, ts, index = tags.pulse_index, tags.timestamp_ps, ledger.index
    # each tag's row among the event pulses, which ascend with the pulses
    row = np.searchsorted(index, pulse)
    event = row < len(index)
    event[event] = index[row[event]] == pulse[event]
    if not event.all():
        raise InvalidInputError(
            f"tag pulse_index {pulse[event.argmin()]} holds no event in the ledger"
        )
    first, last = _window_edges(layout)
    # the edges first[0], last[0] + 1, first[1], ... ascend: a tag in
    # window k is at or past 2k + 1 of them, a tag outside every window
    # past an even number
    slot = np.zeros(len(ts), dtype=np.int8)
    for edge in np.column_stack([first, last + 1]).ravel().tolist():
        slot += ts >= edge
    hit = (slot & 1).view(bool)
    rows, window = row[hit], slot[hit] >> 1
    step = np.diff(rows)
    if (step < 0).any():
        order = np.argsort(rows, kind="stable")
        rows, window = rows[order], window[order]
        step = np.diff(rows)
    # a pulse with one windowed tag is a run of one: unlike both neighbours
    apart = np.ones(len(rows) + 1, dtype=bool)
    np.not_equal(step, 0, out=apart[1:-1])
    single = apart[:-1] & apart[1:]
    # the flat count index is code * 4 + window, window = beta * 2 + j;
    # below 48, so int8 holds it
    out.counts += np.bincount(
        ledger.code[rows[single]] * 4 + window[single], minlength=48
    ).reshape(out.counts.shape)
    return out


_TAG_HEAD = b"timebin-qkd time tags/2\n"
# One tag on disk: packed, little-endian, 17 bytes.
_TAG_RECORD = np.dtype([("pulse_index", "<i8"), ("detector_id", "i1"), ("timestamp_ps", "<i8")])
_LEDGER_HEAD = b"timebin-qkd pulse ledger/4\n"
# A ledger file's one summary record, then each of its event pulses:
# packed, little-endian, 120 and 9 bytes.
_SUMMARY_RECORD = np.dtype(
    [("start_index", "<i8"), ("pulses", "<i8"), ("totals", "<i8", (12,)), ("events", "<i8")]
)
_EVENT_RECORD = np.dtype([("index", "<i8"), ("code", "i1")])
_INT64_MAX = int(np.iinfo(np.int64).max)


def _append(target, head: bytes, *bodies: np.ndarray) -> None:
    """Write the `bodies`' bytes to a new file at `target`, or append them if
    `target` is an open binary file; `head` goes first while the file is
    still empty.  Each body is a contiguous array, written without a copy."""
    with nullcontext(target) if hasattr(target, "write") else open(target, "wb") as f:
        if f.tell() == 0:
            f.write(head)
        f.writelines(bodies)


def write_time_tags(path, tags: TimeTags) -> None:
    """Write the click record: one header line, then one 17-byte record per tag.

    The header is `timebin-qkd time tags/2`; a record is a tag's packed
    little-endian int64 pulse_index, int8 detector_id and int64
    timestamp_ps.  `path` may also be a binary file open for writing: the
    records are appended, after the header if the file is still empty.
    """
    records = np.empty(len(tags), dtype=_TAG_RECORD)
    for name in _TAG_RECORD.names:
        records[name] = getattr(tags, name)
    _append(path, _TAG_HEAD, records)


def read_time_tags(path) -> TimeTags:
    """Read a tag file: one header check, then one read of the records.

    A header that is not `timebin-qkd time tags/2` (the CSV tag file of
    earlier versions, say) or a body that is not whole records is refused.
    The int64 columns are copied out, so the tags keep 17 bytes per tag.
    """
    with open(path, "rb") as f:
        head = f.read(len(_TAG_HEAD))
        if head != _TAG_HEAD:
            raise InvalidInputError(
                f"unrecognized tag file header {head!r}: expected {_TAG_HEAD!r} "
                "(CSV tag files of earlier versions are not read)"
            )
        body = f.read()
    if len(body) % _TAG_RECORD.itemsize:
        raise InvalidInputError(f"tag file body of {len(body)} bytes is not whole 17-byte records")
    rec = np.frombuffer(body, _TAG_RECORD)
    return TimeTags(rec["pulse_index"].copy(), rec["detector_id"], rec["timestamp_ps"].copy())


def write_pulse_ledger(path, ledger: PulseLedger) -> None:
    """Write the sender record: a header line, one summary record, its event records.

    The header is `timebin-qkd pulse ledger/4`; the summary record holds
    the packed little-endian int64 start index, pulses, 12 code totals
    and event count (120 bytes), and each event record an event pulse's
    int64 index and int8 code (9 bytes).  `path` may also be a binary
    file open for reading and for writing in place (w+b or r+b; an a+b
    file cannot rewrite its summary and is refused unwritten).  There
    the events are appended, after the header and summary if the file is
    still empty, and the summary is rewritten with the pulses, totals and
    events summed; so the file is the same bytes however the ledger was
    cut into appends.  The file's header, summary and size are read and
    checked first, and a ledger that does not begin where the file's
    ends, a gap or an overlap, is refused unwritten.
    """
    summary = np.array(
        [(ledger.start_index, len(ledger), ledger.totals, len(ledger.index))], _SUMMARY_RECORD
    )
    events = np.rec.fromarrays([ledger.index, ledger.code], dtype=_EVENT_RECORD)
    if hasattr(path, "write"):
        if "a" in getattr(path, "mode", "") or not path.readable():
            raise InvalidInputError(
                "an open ledger file must be readable and rewritable in place (w+b or r+b, not a+b)"
            )
        if path.seek(0, os.SEEK_END):
            old = _ledger_summary(path)
            going_on = int(old["start_index"]) + int(old["pulses"])
            if ledger.start_index != going_on:
                raise InvalidInputError(
                    f"ledger starts at pulse {ledger.start_index}, "
                    f"but the file's ledger goes on at pulse {going_on}"
                )
            summary["start_index"] = old["start_index"]
            for name in ("pulses", "totals", "events"):
                summary[name] += old[name]
            path.seek(len(_LEDGER_HEAD))
            path.write(summary)
            path.seek(0, os.SEEK_END)
            path.write(events)
            return
    _append(path, _LEDGER_HEAD, summary, events)


def _ledger_summary(f) -> np.void:
    """The summary record of the ledger file `f`, which is left just past it.

    A header that is not `timebin-qkd pulse ledger/4`, a summary cut
    short, or a file whose size is not the header, the summary and its
    event count's 9-byte records is refused.
    """
    end = f.seek(0, os.SEEK_END)
    f.seek(0)
    head = f.read(len(_LEDGER_HEAD))
    if head != _LEDGER_HEAD:
        raise InvalidInputError(
            f"unrecognized pulse ledger header {head!r}: expected {_LEDGER_HEAD!r} (pulse "
            "ledger/3 files, pulse ledger/2 files and CSV ledgers of earlier versions are not read)"
        )
    data = f.read(_SUMMARY_RECORD.itemsize)
    if len(data) < _SUMMARY_RECORD.itemsize:
        raise InvalidInputError(f"pulse ledger summary record at byte {len(head)} is cut short")
    summary = np.frombuffer(data, _SUMMARY_RECORD)[0]
    events, body = int(summary["events"]), end - f.tell()
    if body != events * _EVENT_RECORD.itemsize:
        raise InvalidInputError(
            f"pulse ledger summary counts {events} events, but {body} bytes follow it"
        )
    return summary


def read_pulse_ledger(path) -> PulseLedger:
    """Read a ledger file: its summary, then its events in one read.

    `_ledger_summary` refuses the /3, /2 and CSV ledgers of earlier
    versions, a summary cut short and an event body longer or shorter
    than the summary counts.  The summary and the events go to one
    PulseLedger constructor call, which refuses what it would from any
    caller.  So every ledger the writer can write reads back.
    """
    with open(path, "rb") as f:
        summary = _ledger_summary(f)
        events = np.frombuffer(f.read(), _EVENT_RECORD)
    start, pulses, totals = summary["start_index"], summary["pulses"], summary["totals"]
    return PulseLedger(start, pulses, totals, events["index"], events["code"])


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
    probability 1 - exp(-mean * q_surv[j]), computed once per distinct
    q_surv of the batch; the click then projects per outcomes[j][beta],
    the (P bit0, P bit1, P dropped) of its pathway, and flips with the
    intrinsic error.
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
    photon = {q: [[-math.expm1(-mean * q)] for mean in means] for q in set(q_surv)}
    p_photon = np.array([photon[q] for q in q_surv])
    dark = np.array([1.0 - p_dark, p_dark])
    probs = (
        0.5 * (_EVENT_NO_SIGNAL - p_photon * slope[:, None, :])
        * dark[_EVENT_DARK0] * dark[_EVENT_DARK1]
    )
    rest = [max(0.0, 1.0 - math.fsum(row)) for row in probs.reshape(-1, _N_EVENTS).tolist()]
    return np.concatenate([probs, np.reshape(rest, (len(q_surv), 3, 1))], axis=2)


def _pathway_outcomes(blocks: list[Block], det: DetectorModel) -> list[tuple]:
    """Each block's (P bit0, P bit1, P dropped) in the phase, then the time pathway.

    Both are `_projection(apply_switch_both_bins(state, switch), det)`,
    computed once per distinct (setting, switch) pair of the batch and
    shared by its blocks, and each setting's state is prepared once.  The
    pairs are told apart by identity, which costs less than hashing the
    models' fields: the flows hand all the settings of a point one switch,
    and every point of a loss sweep the config's.
    """
    states, pairs, outcomes = {}, {}, []
    for block in blocks:
        pair = id(block.setting), id(block.switch)
        projected = pairs.get(pair)
        if projected is None:
            state = states.get(pair[0])
            if state is None:
                state = states[pair[0]] = block.setting.state()
            projected = pairs[pair] = _projection(apply_switch_both_bins(state, block.switch), det)
        outcomes.append(projected)
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
        # the round's offset goes into its first gap; summed in place, in
        # float64, which holds whole numbers exactly below 2**53; one
        # buffer per round keeps the block's peak low
        gaps[0] += reach - 1
        frames = np.cumsum(gaps, out=gaps)
        rounds.append(frames)
        reach = int(frames[-1]) + 1
    frames = rounds[0] if len(rounds) == 1 else np.concatenate(rounds)
    return frames[: np.searchsorted(frames, n)].astype(np.int64)


def _row_shares(weights: np.ndarray, masses: list[float]) -> np.ndarray:
    """Each row of `weights` over its mass, in one division; a row of zero mass stays 0."""
    mass = np.array(masses)[:, None]
    return np.divide(weights, mass, out=np.zeros_like(weights), where=mass > 0)


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
    # frames only where q < 1, so silent_mass > 0; a row of zero mass is
    # never drawn from, and is left at zero rather than divided.
    event_p, silent_p = _row_shares(event_w, event_mass), _row_shares(silent_w, silent_mass)
    cdf = np.cumsum(event_w, axis=1)
    cells = [np.zeros(0, dtype=np.intp)]
    unclustered = np.zeros((n_blocks, 3 * _N_EVENTS), dtype=np.int64)
    silent = np.zeros((n_blocks, 3), dtype=np.int64)
    for j, block in enumerate(blocks):
        rng, k = block.rng, n_clustered[j]
        if k:
            cells.append(np.searchsorted(cdf[j], rng.random(k) * cdf[j, -1], side="right"))
        if sizes[j] > k:
            unclustered[j] = rng.multinomial(sizes[j] - k, event_p[j])
        if block.pulses > sizes[j]:
            silent[j] = rng.multinomial(block.pulses - sizes[j], silent_p[j])
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
    The ledger holds the class totals and the code of each event frame,
    whether dead time kept its clicks or not: no array is as long as the
    block.
    """
    rng = block.rng
    # One shuffle arranges the unclustered cells over the unclustered
    # frames, so every arrangement is equally likely.
    labels = np.repeat(np.arange(3 * _N_EVENTS), unclustered)
    rng.shuffle(labels)
    cell = np.empty(len(frames), dtype=np.intp)
    cell[clustered] = cl_cell
    cell[~clustered] = labels
    kept = np.ones(len(frames), dtype=bool)
    kept[clustered] = cl_keep
    state = _CELL_STATE[cell]
    beta = _EVENT_BETA[state]
    click0 = _EVENT_CLICK0[state] & kept
    click1 = _EVENT_CLICK1[state] & kept

    # the code of a pulse of class c is c * 4 + setting
    setting = int(block.setting.basis) * 2 + block.setting.bit
    totals = np.zeros(12, dtype=np.int64)
    totals[setting::4] = class_totals

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
    index, code = block.start_index + frames, _CELL_CLASS[cell] * 4 + setting
    return tags, PulseLedger(block.start_index, block.pulses, totals, index, code)


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
       unclustered cells over the unclustered frames, then the jitter of
       window 0's and window 1's clicks.  The ledger takes the class
       totals and the event frames' classes and draws nothing.

    Per-event work is done for clustered events only.  An unclustered
    event is at least `blocked` + 1 frames from both of its neighbours,
    so dead time keeps it and it blocks nothing (the non-paralyzable
    model).  Dead time keeps or drops a clustered event whole, so a kept
    one is one more count in its cell: the double-click policy and the
    tally see cell counts only.

    The stages that draw nothing run once for the whole batch, so a
    block's result does not depend on the batch it is in: the event
    tables (`_pathway_outcomes` switches and projects each distinct
    (setting, switch) pair once, and the photon-click probability is
    computed once per distinct survival), the dead-time pass over the clustered
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
    is not called, not even the slicing of the batch's arrays down to its
    block.  Call each record at most once.
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

    def record(j: int) -> tuple[TimeTags, PulseLedger]:
        # the block's share of the batch's clustered events, cut only here
        lo, hi = np.searchsorted(cl_block, (j, j + 1)).tolist()
        return _tags_and_ledger(
            blocks[j], class_totals[j], frames[j], clustered[j],
            cl_cell[lo:hi], keep[lo:hi], unclustered[j], det,
        )

    return [(counts[j], sent[j], functools.partial(record, j)) for j in range(len(blocks))]


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
