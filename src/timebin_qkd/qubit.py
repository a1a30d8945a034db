"""Time-bin qubit states, mutually unbiased bases, and half-wave-plate preparation.

A qubit lives in the span of two 4.5 ps time bins, |t0> (early) and |t1>
(late).  The protocol uses two mutually unbiased bases:

    Time:     {|t0>, |t1>}
    Phase:    {(|t0> + |t1>)/sqrt(2), (|t0> - |t1>)/sqrt(2)}

States are compared up to a global phase; all statistics downstream use
overlap probabilities, so only the ray matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import InvalidInputError, InvalidStateError

NORM_TOL = 1e-9

# Sense of the amplitude rotation produced by the preparation half-wave plate.
# With sense -1 the rotation reads cos(2a)|t0> - sin(2a)|t1>, which makes the
# -22.5 deg setting prepare the plus superposition (phase bit 0) and +22.5 deg
# the minus superposition, matching the wave-plate settings used for the four
# BB84 states.  Only this labeling choice, not any observable statistic,
# depends on the sign.
HWP_ROTATION_SENSE = -1.0

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Basis(IntEnum):
    """Measurement basis index. Values double as array indices in counts."""

    PHASE = 0
    TIME = 1


@dataclass(frozen=True)
class TimeBinQubit:
    """Pure qubit state amp_t0 |t0> + amp_t1 |t1>, normalized to 1."""

    amp_t0: complex
    amp_t1: complex

    def __post_init__(self) -> None:
        for a in (self.amp_t0, self.amp_t1):
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise InvalidStateError("amplitudes must be finite")
        if abs(self.norm_sq() - 1.0) > NORM_TOL:
            raise InvalidStateError(
                f"state is not normalized: |a0|^2+|a1|^2 = {self.norm_sq()!r}"
            )

    def norm_sq(self) -> float:
        return abs(self.amp_t0) ** 2 + abs(self.amp_t1) ** 2

    def overlap(self, other: "TimeBinQubit") -> complex:
        """Inner product <other|self>."""
        return (
            other.amp_t0.conjugate() * self.amp_t0
            + other.amp_t1.conjugate() * self.amp_t1
        )


@dataclass(frozen=True)
class PreparationSetting:
    """One sender setting: wave-plate angle plus the (basis, bit) it encodes."""

    hwp_angle_deg: float
    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise InvalidInputError("bit must be 0 or 1")
        if self.basis not in (Basis.TIME, Basis.PHASE):
            raise InvalidInputError("preparation settings cover the two BB84 bases")

    def state(self) -> TimeBinQubit:
        return prepare_state(self.hwp_angle_deg)


#: The four sender settings of the protocol, in (basis, bit) display order
#: t0, t1, phi0, phi1.
BB84_SETTINGS: tuple[PreparationSetting, ...] = (
    PreparationSetting(0.0, Basis.TIME, 0),
    PreparationSetting(45.0, Basis.TIME, 1),
    PreparationSetting(-22.5, Basis.PHASE, 0),
    PreparationSetting(22.5, Basis.PHASE, 1),
)


def prepare_state(hwp_angle_deg: float) -> TimeBinQubit:
    """State produced by the preparation half-wave plate at the given angle.

    The amplitude rotation is Malus-like: an angle ``a`` (degrees, taken
    modulo 180) yields cos(2a)|t0> + HWP_ROTATION_SENSE * sin(2a)|t1>.
    The four protocol angles 0, 45, -22.5, +22.5 degrees produce |t0>,
    |t1>, and the two phase-basis superpositions (up to a global phase).
    """
    if not (isinstance(hwp_angle_deg, (int, float)) and math.isfinite(hwp_angle_deg)):
        raise InvalidInputError("wave-plate angle must be a finite number")
    a = math.radians(math.fmod(hwp_angle_deg, 180.0))
    return TimeBinQubit(
        complex(math.cos(2.0 * a)),
        complex(HWP_ROTATION_SENSE * math.sin(2.0 * a)),
    )


def mub_states(basis: Basis) -> tuple[TimeBinQubit, TimeBinQubit]:
    """The (bit 0, bit 1) eigenstate pair of one of the two bases."""
    if basis == Basis.TIME:
        return TimeBinQubit(1.0 + 0.0j, 0.0j), TimeBinQubit(0.0j, 1.0 + 0.0j)
    if basis == Basis.PHASE:
        return (
            TimeBinQubit(_INV_SQRT2 + 0.0j, _INV_SQRT2 + 0.0j),
            TimeBinQubit(_INV_SQRT2 + 0.0j, -_INV_SQRT2 + 0.0j),
        )
    raise InvalidInputError(f"unknown basis: {basis!r}")


def overlap_probability(a: TimeBinQubit, b: TimeBinQubit) -> float:
    """Detection probability |<b|a>|^2 of state ``a`` against projector ``b``."""
    for q in (a, b):
        if abs(q.norm_sq() - 1.0) > NORM_TOL:
            raise InvalidStateError("overlap requires normalized states")
    p = abs(a.overlap(b)) ** 2
    # clamp float dust so downstream probabilities stay in [0, 1]
    return min(max(p, 0.0), 1.0)
