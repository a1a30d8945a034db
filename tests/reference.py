"""Row-by-row reference versions of the tag and ledger file code, accumulate,
the event table, the dead-time pass and the drift walk.

These are the plain Python loops the vectorized functions in
`timebin_qkd.detection` replaced, and the per-time drift evaluation that
`timebin_qkd.source.drift_state` replaced.  They are slow and kept only so
the tests can require byte-identical files, identical counts and
bit-identical probabilities and drift values from the newer code.
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
    dark_prob_per_window,
)
from timebin_qkd.source import DriftModel, _reflect


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


def write_pulse_ledger_rows(path, ledger: PulseLedger) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("pulse_index,intensity_class,alpha,bit\n")
        for row in range(len(ledger)):
            f.write(
                f"{ledger.start_index + row},{int(ledger.class_idx[row])},"
                f"{int(ledger.alpha[row])},{int(ledger.bit[row])}\n"
            )


def read_pulse_ledger_rows(path) -> PulseLedger:
    idx, cls, alpha, bit = [], [], [], []
    with open(path, "r", encoding="ascii") as f:
        f.readline()
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b, c, d = line.split(",")
            idx.append(int(a))
            cls.append(int(b))
            alpha.append(int(c))
            bit.append(int(d))
    return PulseLedger(idx[0], np.array(cls), np.array(alpha), np.array(bit))


def write_time_tags_rows(path, tags: TimeTags) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write("pulse_index,detector_id,timestamp_ps\n")
        for k in range(len(tags)):
            f.write(
                f"{int(tags.pulse_index[k])},{int(tags.detector_id[k])},"
                f"{int(tags.timestamp_ps[k])}\n"
            )


def read_time_tags_rows(path) -> TimeTags:
    pulse, det, ts = [], [], []
    with open(path, "r", encoding="ascii") as f:
        f.readline()
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b, c = line.split(",")
            pulse.append(int(a))
            det.append(int(b))
            ts.append(int(c))
    return TimeTags(pulse, det, ts)


def classify(layout: WindowLayout, timestamp_ps: float) -> tuple[int, int] | None:
    """(pathway, bit) of the first window containing the timestamp, or None."""
    half = 0.5 * layout.width_ps
    for idx, c in enumerate(WINDOW_CENTERS_PS):
        if abs(timestamp_ps - c) <= half:
            return idx // 2, idx % 2
    return None


def accumulate_loop(tags: TimeTags, layout: WindowLayout, ledger: PulseLedger) -> SessionCounts:
    out = SessionCounts.zeros()
    flat_sent = ledger.class_idx * 4 + ledger.alpha * 2 + ledger.bit
    out.pulses_sent += np.bincount(flat_sent, minlength=12).reshape(3, 2, 2)

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
        row = pi - ledger.start_index
        out.counts[ledger.class_idx[row], ledger.alpha[row], ledger.bit[row], beta, j] += 1
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
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xD21F7, channel)))
    steps = rng.normal(0.0, sigma, size=n_hours) if sigma > 0 else np.zeros(n_hours)
    bound = 5.0 * sigma
    values = [0.0]
    x = 0.0
    for s in steps:
        x = _reflect(x + float(s), bound)
        values.append(x)
    return tuple(values)


_GRID_QUANTUM = 64


def drift_state_at(model: DriftModel, t_hours: float) -> tuple[float, float]:
    """The drift at one time, from a cached walk whose length is quantized
    to 64 hours, so that nearby times share a cache entry."""
    n = int(math.floor(t_hours))
    frac = t_hours - n
    length = _GRID_QUANTUM * ((n + 1 + _GRID_QUANTUM) // _GRID_QUANTUM)
    out = []
    for channel, sigma in enumerate(
        (model.pump_power_rel_sigma, model.pump_polarization_sigma)
    ):
        grid = _walk_grid(sigma, model.seed, channel, length)
        a, b = grid[n], grid[n + 1]
        out.append(a + (b - a) * frac)
    return out[0], out[1]
