"""Receiver simulation: projection, click model, time tags, and counting.

The receiver splits incoming light 50:50 between a time-basis and a
phase-basis pathway ending on one detector each.  A polarizing delayed
interferometer (0.88 m path difference, 2.935 ns) maps the two orthogonal
polarizations to two nanosecond slots per pathway, giving four detection
windows per repetition frame.  Counting is by pulse outcome; time tags are
an equivalent record of the same clicks for external tooling, written,
like the pulse ledger, as one header line and then fixed-size records.

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
    """Sender-side record of a pulse range: one code per pulse.

    Covers pulses [start_index, start_index + len); accumulate() needs it
    to attribute windowed clicks to (class, alpha, i).  `code` is the int8
    column class * 4 + alpha * 2 + bit, 0..11, one byte per pulse in
    memory and in the ledger file.  It is read-only: rebinding it raises
    AttributeError and a write into it ValueError.  This constructor is
    the one owner of the ledger's rules, for the engine, the file reader
    and any other caller: start_index is a whole number of at least 0,
    the codes are one column of at least one pulse, the last pulse index
    fits in int64, and every code lies in 0..11.  Codes are range-checked
    in the input's own dtype (int64 for input that is not integer), before
    narrowing, so 268 cannot wrap to 12.  A fraction, in start_index or in
    a code, is refused, not truncated.  A read-only int8 column that owns
    its memory, as the engine and the file reader hand over, is kept as
    given; any other column is copied into a read-only one, so a later
    write into the caller's array cannot change the ledger past these
    checks.
    """

    def __init__(self, start_index, code) -> None:
        self.start_index = int(_whole(start_index, "start_index", "a whole number"))
        if self.start_index < 0:
            raise InvalidInputError("start_index must be non-negative")
        code = np.asarray(code)
        if code.ndim != 1:
            raise InvalidInputError("ledger codes must be one column")
        if len(code) == 0:
            raise InvalidInputError("empty pulse ledger")
        if self.start_index + len(code) - 1 > _INT64_MAX:
            raise InvalidInputError("ledger pulse indices must lie within int64")
        if code.dtype.kind not in "iu":
            code = _whole(code, "ledger codes")
        # as uint8 a negative int8 code is at least 128, so one pass checks both ends
        wide = code.view(np.uint8) if code.dtype == np.int8 else code
        if wide.max() > 11 or (wide.dtype.kind == "i" and wide.min() < 0):
            raise InvalidInputError("ledger codes must lie in 0..11")
        if code.dtype != np.int8 or code.flags.writeable or code.base is not None:
            code = code.astype(np.int8)
            code.flags.writeable = False
        self._code = code

    def __len__(self) -> int:
        return len(self._code)

    @property
    def code(self) -> np.ndarray:
        return self._code


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
    Pulses with more than one windowed tag are discarded (deterministic, so
    pieces merge associatively).  They are found from the runs of equal
    pulses in the windowed tags' pulse column, which is sorted first only
    when it is not already in pulse order, as every file the CLI writes is.
    pulses_sent comes from the ledger, so accumulating disjoint (tags,
    ledger) pieces and summing equals accumulating the concatenation.
    """
    out = SessionCounts.zeros()
    sent = out.pulses_sent.reshape(-1)
    code = ledger.code
    # a count of each of the 12 codes, 2**18 pulses at a time
    for lo in range(0, len(code), 1 << 18):
        part = code[lo : lo + (1 << 18)]
        for v in range(12):
            sent[v] += np.count_nonzero(part == v)

    pulse, ts = tags.pulse_index, tags.timestamp_ps
    outside = (pulse < ledger.start_index) | (pulse >= ledger.start_index + len(ledger))
    if outside.any():
        raise InvalidInputError(
            f"tag pulse_index {pulse[outside.argmax()]} outside ledger range"
        )
    first, last = _window_edges(layout)
    # the edges first[0], last[0] + 1, first[1], ... ascend: a tag in
    # window k is at or past 2k + 1 of them, a tag outside every window
    # past an even number
    slot = np.zeros(len(ts), dtype=np.int8)
    for edge in np.column_stack([first, last + 1]).ravel().tolist():
        slot += ts >= edge
    hit = (slot & 1).view(bool)
    pulses, window = pulse[hit], slot[hit] >> 1
    step = np.diff(pulses)
    if (step < 0).any():
        order = np.argsort(pulses, kind="stable")
        pulses, window = pulses[order], window[order]
        step = np.diff(pulses)
    # a pulse with one windowed tag is a run of one: unlike both neighbours
    apart = np.ones(len(pulses) + 1, dtype=bool)
    np.not_equal(step, 0, out=apart[1:-1])
    single = apart[:-1] & apart[1:]
    row = pulses[single] - ledger.start_index
    # the flat count index is code * 4 + window, window = beta * 2 + j;
    # below 48, so int8 holds it
    out.counts += np.bincount(code[row] * 4 + window[single], minlength=48).reshape(
        out.counts.shape
    )
    return out


_TAG_HEAD = b"timebin-qkd time tags/2\n"
# One tag on disk: packed, little-endian, 17 bytes.
_TAG_RECORD = np.dtype([("pulse_index", "<i8"), ("detector_id", "i1"), ("timestamp_ps", "<i8")])
_LEDGER_HEAD = b"timebin-qkd pulse ledger/2 start_index="
_INT64_MAX = int(np.iinfo(np.int64).max)


def _append(target, head: bytes, body: np.ndarray) -> None:
    """Write `body`'s bytes to a new file at `target`, or append them if
    `target` is an open binary file; `head` goes first while the file is
    still empty.  `body` is a contiguous array, written without a copy."""
    with nullcontext(target) if hasattr(target, "write") else open(target, "wb") as f:
        if f.tell() == 0:
            f.write(head)
        f.write(body)


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
    """Write the sender record: one header line, then one int8 code per pulse.

    The header is `timebin-qkd pulse ledger/2 start_index=<N>`; each byte
    after it is a pulse's code class * 4 + alpha * 2 + bit, in pulse order.
    `path` may also be a binary file open for reading and writing: the
    codes are appended at its end, after the header if the file is still
    empty.  A file that already holds a ledger has its header read back,
    and a ledger that does not begin at that start index plus the codes
    written, a gap or an overlap, is refused before a byte is written; so
    is a file not open for reading.
    """
    if hasattr(path, "write"):
        if not path.readable():
            raise InvalidInputError("an open ledger file must be readable too (w+b or a+b)")
        end = path.seek(0, os.SEEK_END)
        if end:
            path.seek(0)
            next_index = _ledger_start(path) + end - path.tell()
            path.seek(end)
            if ledger.start_index != next_index:
                raise InvalidInputError(
                    f"ledger starts at pulse {ledger.start_index}, "
                    f"but the file's ledger goes on at pulse {next_index}"
                )
    _append(path, _LEDGER_HEAD + b"%d\n" % ledger.start_index, ledger.code)


def _ledger_start(f) -> int:
    """The start index of the ledger header line `f` reads next; a garbled header is refused."""
    line = f.readline(len(_LEDGER_HEAD) + 64)
    digits = line[len(_LEDGER_HEAD) : -1]
    if not (line.startswith(_LEDGER_HEAD) and line.endswith(b"\n") and digits.isdigit()):
        raise InvalidInputError(
            f"unrecognized pulse ledger header {line[:64]!r}: expected "
            f"'{_LEDGER_HEAD.decode()}<N>' (CSV ledgers of earlier versions are not read)"
        )
    return int(digits)


def read_pulse_ledger(path) -> PulseLedger:
    """Read a ledger file: one header check, then one read of the codes.

    A header that is not `timebin-qkd pulse ledger/2 start_index=<N>`
    with N digits is refused, and so is the CSV ledger of earlier
    versions.  The start index and the codes then go to the PulseLedger
    constructor, which refuses what it would refuse from any caller: an
    empty body, a pulse index beyond int64 or a code outside 0..11.  So
    every ledger the writer can write reads back.
    """
    with open(path, "rb") as f:
        start_index = _ledger_start(f)
        code = np.fromfile(f, np.int8)
    code.flags.writeable = False  # so the ledger keeps it without a copy
    return PulseLedger(start_index, code)


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


def _hypergeometric_marginals(
    rng: np.random.Generator, colors: list[int], nsample: int
) -> list[int]:
    """How many of each colour `nsample` draws without replacement take from `colors`.

    The same draws, in the same order, as
    `rng.multivariate_hypergeometric(colors, nsample, method="marginals")`
    for three colours, from scalar `hypergeometric` calls on Python ints:
    past half the total the complement is drawn, each colour but the last
    draws its share of the sample left against the colours after it, and
    the draws stop once the sample is used up.
    """
    total = sum(colors)
    complement = nsample > total // 2
    rest = total - nsample if complement else nsample
    taken = [0, 0, 0]
    others = total
    for j in (0, 1):
        if rest == 0:
            break
        others -= colors[j]
        taken[j] = rng.hypergeometric(colors[j], others, rest)
        rest -= taken[j]
    taken[2] = rest
    return [c - k for c, k in zip(colors, taken)] if complement else taken


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
    left = (class_totals - np.bincount(ev_cls, minlength=3)).tolist()
    fill = left.index(max(left))
    a, b = (c for c in range(3) if c != fill)
    code = np.full(n, fill * 4 + setting, dtype=np.int8)
    code[frames] = ev_cls * 4 + setting
    left = [left[a], left[b], left[fill]]
    edges = [*range(0, n, PLACEMENT_CHUNK_FRAMES), n]
    ends = np.searchsorted(frames, edges).tolist()
    # one mask of a chunk's silent frames, reused for every chunk
    silent_mask = np.empty(min(n, PLACEMENT_CHUNK_FRAMES), dtype=bool)
    for lo, hi, first, last in zip(edges, edges[1:], ends, ends[1:]):
        if left[0] + left[1] == 0:
            break
        quiet = hi - lo - (last - first)
        if quiet == 0:
            continue
        k_a, k_b, k_fill = _hypergeometric_marginals(rng, left, quiet)
        left = [left[0] - k_a, left[1] - k_b, left[2] - k_fill]
        if k_a + k_b == 0:
            continue
        silent = silent_mask[: hi - lo]
        silent.fill(True)
        silent[frames[first:last] - lo] = False
        placed = np.flatnonzero(silent)[rng.choice(quiet, k_a + k_b, replace=False)]
        chunk = code[lo:hi]
        chunk[placed[:k_a]] = a * 4 + setting
        chunk[placed[k_a:]] = b * 4 + setting
    code.flags.writeable = False  # so the ledger keeps it without a copy

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
    return tags, PulseLedger(block.start_index, code)


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
       either of the two smaller left-over classes is not all placed, the
       chunk's share of the left-over classes, at most two scalar
       hypergeometric draws (`_hypergeometric_marginals`, the draws of
       numpy's "marginals" multivariate hypergeometric), and, if the
       share holds either smaller class, one ordered sample of the
       chunk's silent frames that places them; then the jitter of window
       0's and window 1's clicks.

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
