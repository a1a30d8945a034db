"""Weak-coherent-pulse source, loss budget, and slow apparatus drift.

The source emits phase-randomized weak coherent pulses at the oscillator
repetition rate, choosing one of three intensity classes per pulse: signal
(mean mu), decoy (mean nu), and vacuum.  Photon number is Poissonian per
class.  Losses are tracked in dB and compose additively; drift is a slow
bounded random walk of the pump power and pump polarization, evaluated on
an hourly grid with linear interpolation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidInputError

_PROB_TOL = 1e-12


class IntensityClass(IntEnum):
    SIGNAL = 0
    DECOY = 1
    VACUUM = 2


@dataclass(frozen=True)
class SourceConfig:
    """Pulse train parameters.

    class_probabilities orders as (signal, decoy, vacuum) and must sum to
    1; a zero vacuum probability leaves the vacuum class out.
    """

    rep_rate_hz: float = 80e6
    mu: float = 0.8
    nu: float = 0.1
    class_probabilities: tuple[float, float, float] = (0.7, 0.2, 0.1)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rep_rate_hz) and self.rep_rate_hz > 0):
            raise InvalidInputError("rep_rate_hz must be finite and positive")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise InvalidInputError("mu must be finite and positive")
        if not 0.0 <= self.nu < self.mu:
            raise InvalidInputError("nu must satisfy 0 <= nu < mu")
        p = tuple(float(x) for x in self.class_probabilities)
        if len(p) != 3 or any(x < 0 for x in p):
            raise InvalidInputError("class_probabilities must be three non-negative values")
        if abs(sum(p) - 1.0) > _PROB_TOL:
            raise InvalidInputError("class_probabilities must sum to 1")
        object.__setattr__(self, "class_probabilities", p)

    def mean_for(self, cls: IntensityClass) -> float:
        if cls == IntensityClass.SIGNAL:
            return self.mu
        if cls == IntensityClass.DECOY:
            return self.nu
        return 0.0

    @property
    def frame_ps(self) -> float:
        return 1e12 / self.rep_rate_hz


@dataclass(frozen=True)
class LossBudget:
    """Additive dB loss budget from source output to detection."""

    channel_db: float = 0.45
    coupling_db: float = 3.0
    detector_db: float = 2.2
    receiver_optics_db: float = 8.9

    def __post_init__(self) -> None:
        for name in ("channel_db", "coupling_db", "detector_db", "receiver_optics_db"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInputError(f"{name} must be finite and non-negative")

    @property
    def total_db(self) -> float:
        return self.channel_db + self.coupling_db + self.detector_db + self.receiver_optics_db

    @property
    def path_db(self) -> float:
        """Everything except the detector itself (applied at measurement)."""
        return self.channel_db + self.coupling_db + self.receiver_optics_db


def transmittance(loss_db: float) -> float:
    """Power transmittance 10^(-loss_db / 10) of a loss stated in dB."""
    if not (math.isfinite(loss_db) and loss_db >= 0):
        raise InvalidInputError("loss_db must be finite and non-negative")
    return 10.0 ** (-loss_db / 10.0)


def sample_photon_number(mean, rng: np.random.Generator, size=None):
    """Poisson photon number draw(s) for the given mean(s)."""
    mean_arr = np.asarray(mean, dtype=float)
    if np.any(~np.isfinite(mean_arr)) or np.any(mean_arr < 0):
        raise InvalidInputError("mean photon number must be finite and non-negative")
    out = rng.poisson(mean_arr if size is None else mean, size=size)
    if np.ndim(mean) == 0 and size is None:
        return int(out)
    return out


@dataclass(frozen=True)
class DriftModel:
    """Slow drift of pump power (relative) and pump polarization (rad).

    Both quantities perform independent Gaussian random walks on an hourly
    grid, reflected at +/- 5 sigma_step so excursions stay bounded; values
    between grid points are linearly interpolated and the walk starts at 0.
    """

    pump_power_rel_sigma: float = 0.005
    pump_polarization_sigma: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pump_power_rel_sigma", "pump_polarization_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise InvalidInputError(f"{name} must be finite and non-negative")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidInputError("seed must be a non-negative integer")


def _reflect(x: float, bound: float) -> float:
    if bound == 0.0:
        return 0.0
    period = 4.0 * bound
    y = math.fmod(x + bound, period)
    if y < 0.0:
        y += period
    y -= bound
    if y > bound:
        y = 2.0 * bound - y
    return y


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


def drift_state(model: DriftModel, t_hours: float) -> tuple[float, float]:
    """(relative pump power offset, polarization angle offset) at time t.

    Deterministic in (model, t): the same model always reproduces the same
    trajectory bit for bit.
    """
    if not (math.isfinite(t_hours) and t_hours >= 0):
        raise InvalidInputError("t_hours must be finite and non-negative")
    n = int(math.floor(t_hours))
    frac = t_hours - n
    # grid length quantized so nearby times share a cache entry
    length = _GRID_QUANTUM * ((n + 1 + _GRID_QUANTUM) // _GRID_QUANTUM)
    out = []
    for channel, sigma in enumerate(
        (model.pump_power_rel_sigma, model.pump_polarization_sigma)
    ):
        grid = _walk_grid(sigma, model.seed, channel, length)
        a, b = grid[n], grid[n + 1]
        out.append(a + (b - a) * frac)
    return out[0], out[1]


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, order-insensitive random stream for one work unit.

    Streams are derived from the master seed and an integer key tuple, so
    blocks can run in any order (or in parallel) and still draw exactly the
    same numbers.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
