"""Row-by-row reference versions of the tag and ledger file decoders,
accumulate, the event table, the dead-time pass and the drift walk, the
binary search that placed a tag in its window, the tests' builders of a
ledger from a code or three columns per pulse, and the expansion of a
ledger into one code per pulse.

These are the plain Python loops the vectorized functions in
`timebin_qkd.detection` replaced, the per-time drift evaluation that
`timebin_qkd.source.drift_state` replaced, and the window search that
`accumulate`'s comparison passes replaced.  They are kept only so
the tests can require identical tags, ledgers and counts and bit-identical
probabilities and drift values from the newer code.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from timebin_qkd.detection import (
    _EVENT_STATES,
    WINDOW_CENTERS_PS,
    DetectorModel,
    PulseLedger,
    SessionCounts,
    TimeTags,
    WindowLayout,
    _window_edges,
    dark_prob_per_window,
)
from timebin_qkd.source import PURPOSE_DRIFT, DriftModel, _reflect, derived_rng


def event_probabilities_loop(
    mean: float,
    q_surv: float,
    outcomes: list[tuple[float, float, float]],
    det: DetectorModel,
    layout: WindowLayout,
) -> np.ndarray:
    """One class row of the event table: the 22 event states one by one, then the silent rest."""
    p_photon = -math.expm1(-mean * q_surv)
    e = det.intrinsic_error
    p_dark = dark_prob_per_window(det, layout)
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


# The tag file's header line, newline included.
TAG_HEAD = b"timebin-qkd time tags/2\n"


def decode_time_tags(data: bytes) -> tuple[list, list, list] | None:
    """(pulse_index, detector_id, timestamp_ps) of a tag file's bytes, or None.

    None when the file is not one a writer could have made: it does not
    start with TAG_HEAD; the body after it is not whole 17-byte records
    (little-endian int64 pulse index, int8 detector, int64 timestamp); a
    pulse index is negative; or a detector is not 0 or 1.
    """
    if not data.startswith(TAG_HEAD):
        return None
    body = data[len(TAG_HEAD) :]
    if len(body) % 17:
        return None
    pulse, detector, ts = [], [], []
    for at in range(0, len(body), 17):
        pulse.append(int.from_bytes(body[at : at + 8], "little", signed=True))
        detector.append(int.from_bytes(body[at + 8 : at + 9], "little", signed=True))
        ts.append(int.from_bytes(body[at + 9 : at + 17], "little", signed=True))
    if any(p < 0 for p in pulse) or any(d not in (0, 1) for d in detector):
        return None
    return pulse, detector, ts


# The ledger file's header line, newline included.
LEDGER_HEAD = b"timebin-qkd pulse ledger/4\n"


def _int64(data: bytes, at: int) -> int:
    return int.from_bytes(data[at : at + 8], "little", signed=True)


def decode_pulse_ledger(data: bytes) -> tuple[int, int, list, list, list] | None:
    """(start_index, pulses, totals, index, code) of a ledger file's bytes, or None.

    None when the file is not one a writer could have made: it does not
    start with LEDGER_HEAD; the header is not followed by one whole
    120-byte summary record (little-endian int64 start index, pulses, 12
    totals and event count) and exactly that many whole 9-byte event
    records (int64 index, int8 code); or the start index is negative, the
    pulses are fewer than 1, the last pulse index passes int64, a total
    is negative, the totals do not sum to the pulses, an index is outside
    the ledger's pulses or not past the one before, a code is outside
    0..11, or a code occurs more often than its total.
    """
    if not data.startswith(LEDGER_HEAD) or len(data) - len(LEDGER_HEAD) < 120:
        return None
    at = len(LEDGER_HEAD)
    start, n = _int64(data, at), _int64(data, at + 8)
    totals = [_int64(data, at + 16 + 8 * k) for k in range(12)]
    events = _int64(data, at + 112)
    at += 120
    if len(data) - at != 9 * events:
        return None
    if start < 0 or n < 1 or start + n - 1 > 2**63 - 1:
        return None
    if min(totals) < 0 or sum(totals) != n:
        return None
    seen, last, index, code = [0] * 12, start - 1, [], []
    for at in range(at, len(data), 9):
        i, c = _int64(data, at), data[at + 8]
        if not last < i < start + n or c > 11:
            return None
        seen[c] += 1
        last = i
        index.append(i)
        code.append(c)
    if any(s > t for s, t in zip(seen, totals)):
        return None
    return start, n, totals, index, code


def ledger_of_codes(start_index, code) -> PulseLedger:
    """The ledger of one code per pulse, every pulse an event pulse.

    Tags may then fall on any of its pulses, as on a dense ledger.
    """
    code = np.asarray(code)
    totals = np.bincount(code.astype(np.int64), minlength=12)
    return PulseLedger(start_index, len(code), totals, start_index + np.arange(len(code)), code)


def ledger_of_columns(start_index, class_idx, alpha, bit) -> PulseLedger:
    """The ledger of class, alpha and bit columns, one pulse each, every pulse an event pulse.

    Built through the code class * 4 + alpha * 2 + bit of each pulse
    (`ledger_of_codes`); the tests' one way to build one from the three
    columns a reader of it sees.
    """
    code = np.asarray(class_idx) * 4 + np.asarray(alpha) * 2 + np.asarray(bit)
    return ledger_of_codes(start_index, code)


def ledger_columns(ledger: PulseLedger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class_idx, alpha, bit) of a ledger's event pulses, decoded from their codes.

    The inverse of ledger_of_columns, as int8 columns; the tests' one way
    to read a ledger's three columns.
    """
    code = ledger.code
    return code // 4, code // 2 % 2, code % 2


def dense_codes(ledger: PulseLedger, rng: np.random.Generator) -> np.ndarray:
    """One int8 code per pulse of the ledger: its events' codes, and its silent codes anywhere.

    The codes the totals leave over after the events' are arranged at
    random, by `rng`, over the pulses that hold no event: any such
    arrangement agrees with the ledger, since no tag falls on those
    pulses.  This is the recipe for a reader that wants one code per
    pulse.
    """
    left = ledger.totals - np.bincount(ledger.code, minlength=12)
    silent = np.repeat(np.arange(12, dtype=np.int8), left)
    rng.shuffle(silent)
    code = np.empty(len(ledger), dtype=np.int8)
    event = np.zeros(len(ledger), dtype=bool)
    event[ledger.index - ledger.start_index] = True
    code[event] = ledger.code
    code[~event] = silent
    return code


def classify(layout: WindowLayout, timestamp_ps: float) -> tuple[int, int] | None:
    """(pathway, bit) of the first window containing the timestamp, or None."""
    half = 0.5 * layout.width_ps
    for idx, c in enumerate(WINDOW_CENTERS_PS):
        if abs(timestamp_ps - c) <= half:
            return idx // 2, idx % 2
    return None


def windows_by_search(layout: WindowLayout, timestamp_ps) -> np.ndarray:
    """Each int64 stamp's window 0..3, or -1 outside every window.

    One binary search of the stamps into the eight ascending whole
    picosecond edges first[0], last[0] + 1, first[1], ...: a stamp past an
    odd count 2k + 1 of them lies in window k.  This is the search that
    `accumulate`'s int8 comparison passes replaced.
    """
    first, last = _window_edges(layout)
    slot = np.searchsorted(np.column_stack([first, last + 1]).ravel(), timestamp_ps, side="right")
    return np.where(slot % 2 == 1, slot // 2, -1)


def accumulate_loop(tags: TimeTags, layout: WindowLayout, start_index: int, code) -> SessionCounts:
    """accumulate tag by tag against one code per pulse from start_index on (`dense_codes`)."""
    out = SessionCounts.zeros()
    code = np.asarray(code)
    out.pulses_sent += np.bincount(code, minlength=12).reshape(3, 2, 2)

    classified: dict[int, tuple[int, int]] = {}
    multi: set[int] = set()
    for pulse, ts in zip(tags.pulse_index.tolist(), tags.timestamp_ps.tolist()):
        hit = classify(layout, ts)
        if hit is None:
            continue
        if pulse in classified or pulse in multi:
            classified.pop(pulse, None)
            multi.add(pulse)
            continue
        classified[pulse] = hit
    for pi, (beta, j) in classified.items():
        c = int(code[pi - start_index])
        out.counts[c // 4, c // 2 % 2, c % 2, beta, j] += 1
    return out


def prune_dead_time_loop(frames, detector, blocked: int) -> np.ndarray:
    """The greedy dead-time pass event by event, per detector over the
    sorted events: a kept event blocks the next `blocked` frames on its
    detector."""
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


@functools.lru_cache(maxsize=256)
def _walk_grid(sigma: float, seed: int, channel: int, n_hours: int) -> tuple[float, ...]:
    # One reflected random walk, hourly resolution, value 0 at t = 0.
    rng = derived_rng(seed, PURPOSE_DRIFT, channel)
    steps = rng.normal(0.0, sigma, size=n_hours) if sigma > 0 else np.zeros(n_hours)
    bound = 5.0 * sigma
    values = [0.0]
    x = 0.0
    for s in steps:
        x = _reflect(x + float(s), bound)
        values.append(x)
    return tuple(values)


_GRID_QUANTUM = 64


def drift_state_at(model: DriftModel, seed: int, t_hours: float) -> tuple[float, float]:
    """The drift at one time, from a cached walk whose length is quantized
    to 64 hours, so that nearby times share a cache entry."""
    n = int(math.floor(t_hours))
    frac = t_hours - n
    length = _GRID_QUANTUM * ((n + 1 + _GRID_QUANTUM) // _GRID_QUANTUM)
    out = []
    for channel, sigma in enumerate(
        (model.pump_power_rel_sigma, model.pump_polarization_sigma)
    ):
        grid = _walk_grid(sigma, seed, channel, length)
        a, b = grid[n], grid[n + 1]
        out.append(a + (b - a) * frac)
    return out[0], out[1]
