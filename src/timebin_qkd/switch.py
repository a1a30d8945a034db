"""Cross-phase-modulation polarization switch acting on one time bin.

A strong pump pulse co-propagating with the signal in a nonlinear fiber
rotates the polarization of whatever sits under it.  The switching
efficiency for a signal component that accumulated a nonlinear phase
delta_phi at pump/signal polarization angle theta is

    eta = sin^2(2 theta) * sin^2(delta_phi / 2)

and the accumulated phase itself is

    delta_phi = (8 pi / 3) * n2 * L_eff * I_pump / lambda_signal.

Because pump and signal walk off temporally inside the fiber, the phase a
signal slice accumulates is the fraction of the pump pulse that slides
across it.  Averaged over the signal intensity profile this gives a weight
w(delay) in [0, 1] with a flat top of width ~walkoff and Gaussian edges;
the effective phase is delta_phi_peak * w and the efficiency follows from
the formula above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError, InvalidStateError
from .qubit import TimeBinQubit

# Center wavelengths and bandwidths of the two pulses (nm).
SIGNAL_WAVELENGTH_NM = 720.8
SIGNAL_BANDWIDTH_NM = 1.7
PUMP_WAVELENGTH_NM = 800.0
PUMP_BANDWIDTH_NM = 2.1

# Gaussian time-bandwidth product (FWHM * FWHM).
TIME_BANDWIDTH_PRODUCT = 0.441

_C_M_PER_S = 299792458.0
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# Polarization mode indices used by SwitchedState amplitudes.
POL_H = 0
POL_V = 1


def transform_limited_fwhm_ps(wavelength_nm: float, bandwidth_nm: float) -> float:
    """FWHM duration (ps) of a transform-limited Gaussian pulse."""
    if wavelength_nm <= 0 or bandwidth_nm <= 0:
        raise InvalidInputError("wavelength and bandwidth must be positive")
    lam = wavelength_nm * 1e-9
    dlam = bandwidth_nm * 1e-9
    return TIME_BANDWIDTH_PRODUCT * lam * lam / (_C_M_PER_S * dlam) * 1e12


DEFAULT_SIGNAL_FWHM_PS = transform_limited_fwhm_ps(SIGNAL_WAVELENGTH_NM, SIGNAL_BANDWIDTH_NM)
DEFAULT_PUMP_FWHM_PS = transform_limited_fwhm_ps(PUMP_WAVELENGTH_NM, PUMP_BANDWIDTH_NM)

# Temporal separation of the two bins, set by the birefringent crystal length.
DEFAULT_BIN_SEPARATION_PS = 4.5

# Default group-velocity walkoff between pump and signal over the fiber.
# Chosen larger than the bin separation so the switching plateau covers one
# bin while leaving the other untouched.
DEFAULT_WALKOFF_PS = 6.0


@dataclass(frozen=True)
class SwitchModel:
    """Parameters of the pump-driven polarization switch.

    theta: pump/signal polarization angle (rad); peak efficiency at pi/4.
    delta_phi_peak: nonlinear phase (rad) at full pump overlap.
    pump_fwhm_ps / signal_fwhm_ps: Gaussian intensity FWHM durations.
    walkoff_ps: pump-signal temporal slide across the fiber.
    pump_delay_ps: pump arrival relative to the early bin (0 = centered).
    bin_phase_offset: constant phase the switched component picks up.
    bin_separation_ps: delay of the late bin relative to the early one.
    """

    theta: float = math.pi / 4.0
    delta_phi_peak: float = math.pi
    pump_fwhm_ps: float = DEFAULT_PUMP_FWHM_PS
    signal_fwhm_ps: float = DEFAULT_SIGNAL_FWHM_PS
    walkoff_ps: float = DEFAULT_WALKOFF_PS
    pump_delay_ps: float = 0.0
    bin_phase_offset: float = 0.0
    bin_separation_ps: float = DEFAULT_BIN_SEPARATION_PS

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
        for name in ("pump_fwhm_ps", "signal_fwhm_ps", "walkoff_ps", "bin_separation_ps"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be positive")
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise InvalidInputError("theta must lie in [0, pi/2]")
        if self.delta_phi_peak < 0:
            raise InvalidInputError("delta_phi_peak must be non-negative")


def nonlinear_phase(
    n2_m2_per_w: float,
    l_eff_m: float,
    pump_peak_intensity_w_per_m2: float,
    lambda_signal_m: float,
) -> float:
    """Cross-phase shift (8 pi / 3) n2 L_eff I_pump / lambda_signal.

    Material and geometry arguments must be positive; a zero pump intensity
    is allowed and gives zero phase.
    """
    if n2_m2_per_w <= 0 or l_eff_m <= 0 or lambda_signal_m <= 0:
        raise InvalidInputError("n2, L_eff and lambda_signal must be positive")
    if pump_peak_intensity_w_per_m2 < 0:
        raise InvalidInputError("pump intensity must be non-negative")
    return (
        (8.0 * math.pi / 3.0)
        * n2_m2_per_w
        * l_eff_m
        * pump_peak_intensity_w_per_m2
        / lambda_signal_m
    )


def switching_efficiency(theta: float, delta_phi: float) -> float:
    """eta = sin^2(2 theta) * sin^2(delta_phi / 2)."""
    if not (math.isfinite(theta) and math.isfinite(delta_phi)):
        raise InvalidInputError("theta and delta_phi must be finite")
    s2 = math.sin(2.0 * theta)
    sp = math.sin(0.5 * delta_phi)
    return s2 * s2 * sp * sp


def _overlap_weight(model: SwitchModel, delay_ps: float) -> float:
    # Slide integral of the normalized pump intensity across the signal
    # profile.  Each signal slice s accumulates the fraction of the pump
    # area swept past it, Phi_p(d + W/2 - s) - Phi_p(d - W/2 - s); averaging
    # over the Gaussian signal profile folds both widths into one quadrature
    # width, leaving a difference of normal CDFs.
    sigma = math.hypot(
        model.pump_fwhm_ps * _FWHM_TO_SIGMA,
        model.signal_fwhm_ps * _FWHM_TO_SIGMA,
    )
    half = 0.5 * model.walkoff_ps
    w = float(ndtr((delay_ps + half) / sigma) - ndtr((delay_ps - half) / sigma))
    return min(max(w, 0.0), 1.0)


def pump_overlap_fraction(model: SwitchModel) -> float:
    """Signal-averaged fraction of the peak cross-phase, in [0, 1].

    Equals ~1 when the pump delay sits well inside the walkoff plateau and
    falls off with Gaussian-convolved edges; symmetric about the plateau
    center (delay 0).
    """
    return _overlap_weight(model, model.pump_delay_ps)


def effective_efficiency(model: SwitchModel) -> float:
    """Switching efficiency at the model's own delay: the driven phase is
    delta_phi_peak scaled by the pump overlap weight there."""
    w = pump_overlap_fraction(model)
    return switching_efficiency(model.theta, model.delta_phi_peak * w)


def bin_efficiencies(model: SwitchModel) -> tuple[float, float]:
    """Switching efficiencies of the early and the late bin.

    Each is switching_efficiency(theta, delta_phi_peak * w) with w the pump
    overlap at that bin's own delay: pump_delay for the early bin and
    pump_delay - bin_separation for the late one.
    """
    early, late = (
        switching_efficiency(model.theta, model.delta_phi_peak * _overlap_weight(model, delay))
        for delay in (model.pump_delay_ps, model.pump_delay_ps - model.bin_separation_ps)
    )
    return early, late


NORM_TOL_SWITCHED = 1e-9


@dataclass(frozen=True)
class SwitchedState:
    """Amplitudes over the four modes (bin, polarization) after the switch.

    amplitudes[b][p] is the amplitude of bin b in polarization p with
    b in {0: t0, 1: t1} and p in {POL_H, POL_V}.  The input qubit arrives
    entirely H-polarized; the switch moves amplitude into V.  Total norm is
    1 for the lossless switch implemented here.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.shape != (2, 2):
            raise InvalidStateError("amplitudes must have shape (2, 2)")
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            raise InvalidStateError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", arr)
        if self.norm_sq() > 1.0 + NORM_TOL_SWITCHED:
            raise InvalidStateError("total norm exceeds 1")

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amp(self, time_bin: int, pol: int) -> complex:
        return complex(self.amplitudes[time_bin][pol])


def _bin_rotation(amp: complex, eta: float, phase: float) -> tuple[complex, complex]:
    # H -> sqrt(1-eta) H + sqrt(eta) e^{i phase} V, unitary on the bin.
    stay = math.sqrt(max(0.0, 1.0 - eta))
    go = math.sqrt(min(1.0, max(0.0, eta)))
    return amp * stay, amp * go * complex(math.cos(phase), math.sin(phase))


def apply_switch_both_bins(q: TimeBinQubit, model: SwitchModel) -> SwitchedState:
    """Act with the pump on both bins of an H-polarized input qubit.

    Each bin's amplitude splits into a switched V component with weight
    switching_efficiency(theta, delta_phi_peak * w) and an unswitched H
    remainder, where w is the pump overlap at that bin's own delay: the
    pump is aimed at the early bin, and the late bin sees it at
    pump_delay - bin_separation.  At the operating point the late-bin
    weight is negligible, so only the early bin switches; a pump delayed
    by about one bin separation switches the late bin instead, which is
    what a delay scan sweeps across.  Norm is preserved.
    """
    etas = bin_efficiencies(model)
    amps = np.zeros((2, 2), dtype=complex)
    for b, (amp_in, eta) in enumerate(zip((q.amp_t0, q.amp_t1), etas)):
        h, v = _bin_rotation(amp_in, eta, model.bin_phase_offset)
        amps[b, POL_H] = h
        amps[b, POL_V] = v
    return SwitchedState(amps)


def with_delay(model: SwitchModel, pump_delay_ps: float) -> SwitchModel:
    """Copy of the model at a different pump delay."""
    return replace(model, pump_delay_ps=pump_delay_ps)
