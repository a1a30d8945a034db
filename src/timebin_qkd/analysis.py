"""Estimation on top of recorded counts: tomography rows, QBER, decoy
bounds, and the secret key rate.

The decoy treatment is the standard vacuum+weak two-intensity analysis: a
lower bound on the single-photon yield from the signal/decoy gain pair and
the vacuum yield, an upper bound on the single-photon error rate from the
decoy error gain, and the usual one-way rate formula
    R = q * (-Q_mu f H2(E_mu) + Q_1 (1 - H2(e_1)))
of Ma, Qi, Zhao and Lo, PRA 72, 012326 (2005), with the error-correction
inefficiency f = F_EC and the sifting factor q = SIFTING_FACTOR.
All bounds clamp to [0, 1] and report what was clamped via flags rather
than failing, since estimator excursions outside the physical range are
expected at finite sample sizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .detection import SessionCounts, _indices
from .errors import InvalidInputError
from .qubit import Basis
from .source import IntensityClass, SourceConfig

SETTING_LABELS = ("phase:0", "phase:1", "time:0", "time:1")

# Error-correction inefficiency and BB84 sifting factor of the rate formula.
F_EC = 1.22
SIFTING_FACTOR = 0.5

# The largest mu whose e**mu, a factor of the decoy bound on Y_1, is a float.
MAX_MU = math.log(sys.float_info.max)


def probability_matrix(counts: SessionCounts) -> np.ndarray | None:
    """Measured conditional probabilities P(beta, j | alpha, i, clicked) of the signal class.

    A (4, 4) float64 array: rows are prepared settings, columns measured
    (pathway, slot), both in SETTING_LABELS order.  Each entry is its count
    over the row total, correctly rounded.  None when a preparation
    recorded no signal-class event, so its row has no ratio.
    """
    rows = counts.counts[IntensityClass.SIGNAL].reshape(4, 4)
    totals = rows.sum(axis=1)
    return rows / totals[:, None] if totals.all() else None


def conditional_probabilities(
    counts: SessionCounts,
    intensity: IntensityClass,
    alpha: Basis,
    i: int,
    beta: Basis,
) -> tuple[float, float]:
    """(P(j=0), P(j=1)) conditioned on measuring pathway beta; NaN without an event there."""
    intensity, alpha, i, beta = _indices(intensity, alpha, i, beta)
    c = counts.counts[intensity, alpha, i, beta]
    total = int(c[0] + c[1])
    return (int(c[0]) / total, int(c[1]) / total) if total else (math.nan, math.nan)


def fidelities(
    counts: SessionCounts, intensity: IntensityClass = IntensityClass.SIGNAL
) -> dict[tuple[Basis, int], float]:
    """Matched-basis readout fidelity per prepared setting.

    A setting without a matched-basis event has fidelity NaN.  The counts
    are read once, as Python ints, so each ratio is int / int true
    division.
    """
    c = counts.counts[_indices(intensity)[0]].tolist()
    out = {}
    for alpha in (Basis.PHASE, Basis.TIME):
        for i in (0, 1):
            matched = c[alpha][i][alpha]
            total = matched[0] + matched[1]
            out[(alpha, i)] = matched[i] / total if total else math.nan
    return out


def qber(
    counts: SessionCounts, intensity: IntensityClass = IntensityClass.SIGNAL
) -> float:
    """Sifted error rate over matched-basis events of one intensity class; NaN without one."""
    (intensity,) = _indices(intensity)
    matched = counts.matched_clicks(intensity)
    return counts.matched_errors(intensity) / matched if matched else math.nan


def binary_entropy(x: float) -> float:
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise InvalidInputError("binary entropy argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class DecoyEstimates:
    """Single-photon bounds from the vacuum+weak decoy pair."""

    y1_lower: float
    e1_upper: float
    q1_lower: float
    flags: tuple[str, ...]


def decoy_coefficient(mu: float, nu: float) -> float:
    """The factor mu / (mu nu - nu**2) of the decoy bound on Y_1.

    The one check of the (mu, nu) domain: it needs 0 < nu < mu, mu at most
    MAX_MU, and a positive denominator whose quotient is a finite float.
    A vacuum decoy carries no slope information, and a nu so small that
    mu nu - nu**2 rounds to zero, or mu over it overflows, leaves the bound
    no number; each raises InvalidInputError.
    """
    if not (math.isfinite(mu) and math.isfinite(nu) and 0.0 < nu < mu):
        raise InvalidInputError("need 0 < nu < mu")
    if mu > MAX_MU:
        raise InvalidInputError(f"mu must be at most {MAX_MU}, where e**mu is still a float")
    denominator = mu * nu - nu * nu
    if not (denominator > 0.0 and math.isfinite(mu / denominator)):
        raise InvalidInputError(
            f"nu = {nu!r} is too small beside mu = {mu!r}: the decoy coefficient "
            "mu / (mu*nu - nu**2) of the bound on Y_1 is no finite float"
        )
    return mu / denominator


def decoy_bounds(
    q_mu: float,
    e_mu: float,
    q_nu: float,
    e_nu: float,
    mu: float,
    nu: float,
    y0: float,
) -> DecoyEstimates:
    """Bound the single-photon yield and error rate from two gain pairs.

    y1_lower is exact when yields are photon-number independent of the
    intensity class; e1_upper additionally uses the measured vacuum yield.
    (mu, nu) must be a pair decoy_coefficient takes.
    """
    coeff = decoy_coefficient(mu, nu)
    for name, v in (("q_mu", q_mu), ("q_nu", q_nu), ("e_mu", e_mu), ("e_nu", e_nu)):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise InvalidInputError(f"{name} must lie in [0, 1]")
    if not (math.isfinite(y0) and 0.0 <= y0 <= 1.0):
        raise InvalidInputError("y0 must lie in [0, 1]")

    flags: list[str] = []
    y1 = coeff * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
        - ((mu * mu - nu * nu) / (mu * mu)) * y0
    )
    if y1 < 0.0:
        y1 = 0.0
        flags.append("y1-clamped-zero")
    elif y1 > 1.0:
        y1 = 1.0
        flags.append("y1-clamped-one")

    if y1 == 0.0:
        e1 = 1.0
        flags.append("no-single-photon-signal")
    else:
        e1 = (e_nu * q_nu * math.exp(nu) - 0.5 * y0) / (y1 * nu)
        if e1 < 0.0:
            e1 = 0.0
            flags.append("e1-clamped-zero")
        elif e1 > 1.0:
            e1 = 1.0
            flags.append("e1-clamped-one")

    q1 = y1 * mu * math.exp(-mu)
    return DecoyEstimates(y1, e1, q1, tuple(flags))


@dataclass(frozen=True)
class KeyRateReport:
    """Everything the rate formula consumed plus the result.

    The formula's fixed constants are not carried; to_dict writes them
    from F_EC and SIFTING_FACTOR.
    """

    q_mu: float
    e_mu: float | None
    q_nu: float
    e_nu: float | None
    y0: float | None
    y1_lower: float
    e1_upper: float
    q1_lower: float
    mu: float
    nu: float
    rep_rate_hz: float
    r_per_pulse: float
    r_bps: float
    flags: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "Q_mu": self.q_mu,
            "E_mu": self.e_mu,
            "H2_E_mu": None if self.e_mu is None else binary_entropy(self.e_mu),
            "Q_nu": self.q_nu,
            "E_nu": self.e_nu,
            "Y_0": self.y0,
            "Y_1": self.y1_lower,
            "e_1": self.e1_upper,
            "Q_1": self.q1_lower,
            "mu": self.mu,
            "nu": self.nu,
            "f_rep_Hz": self.rep_rate_hz,
            "f_EC": F_EC,
            "sifting_factor": SIFTING_FACTOR,
            "R_per_pulse": self.r_per_pulse,
            "R_bps": self.r_bps,
            "flags": list(self.flags),
        }


def secret_key_rate_from_values(
    q_mu: float,
    e_mu: float,
    q_nu: float,
    e_nu: float,
    y0: float,
    mu: float,
    nu: float,
    rep_rate_hz: float,
) -> KeyRateReport:
    """Rate formula on already-extracted gains and error rates.

    An error rate of NaN means its class had no matched-basis events; a
    y0 of NaN means no vacuum-class pulse was sent, so the background
    yield is unknown.  The decoy pair then bounds nothing, so the
    single-photon terms take their no-information values (Y_1 = Q_1 = 0,
    e_1 = 1) and the report carries the flag "no-decoy-events",
    "no-signal-events" or "no-vacuum-pulses", and None for that value.
    Either way the rate is zero; without signal events it is zero by
    definition, since there is no sifted key to correct.
    """
    if not rep_rate_hz > 0:
        raise InvalidInputError("rep_rate_hz must be positive")
    e_mu, e_nu, y0 = (None if math.isnan(v) else v for v in (e_mu, e_nu, y0))
    missing = tuple(
        f"no-{name}-events" for name, e in (("signal", e_mu), ("decoy", e_nu)) if e is None
    ) + (("no-vacuum-pulses",) if y0 is None else ())
    if missing:
        est = DecoyEstimates(0.0, 1.0, 0.0, missing)
    else:
        est = decoy_bounds(q_mu, e_mu, q_nu, e_nu, mu, nu, y0)
    flags = list(est.flags)
    r = 0.0
    if e_mu is not None:
        r = SIFTING_FACTOR * (
            -q_mu * F_EC * binary_entropy(e_mu)
            + est.q1_lower * (1.0 - binary_entropy(est.e1_upper))
        )
    if r < 0.0:
        r = 0.0
        flags.append("rate-clamped-zero")
    return KeyRateReport(
        q_mu=q_mu,
        e_mu=e_mu,
        q_nu=q_nu,
        e_nu=e_nu,
        y0=y0,
        y1_lower=est.y1_lower,
        e1_upper=est.e1_upper,
        q1_lower=est.q1_lower,
        mu=mu,
        nu=nu,
        rep_rate_hz=rep_rate_hz,
        r_per_pulse=r,
        r_bps=r * rep_rate_hz,
        flags=tuple(flags),
    )


def secret_key_rate(counts: SessionCounts, source: SourceConfig) -> KeyRateReport:
    """Extract gains and error rates from counts, then apply the formula.

    Gains are overall click probabilities per class; error rates are the
    sifted matched-basis QBER of that class, and the vacuum yield is the
    gain of the vacuum class.  A signal or decoy class without a
    matched-basis event (deep loss, or never sent) leaves its error rate
    undefined (NaN), and a vacuum class that was never sent leaves the
    vacuum yield undefined; the rate is then zero, flagged
    "no-signal-events", "no-decoy-events" or "no-vacuum-pulses", rather
    than an error.
    """
    y0 = counts.gain(IntensityClass.VACUUM) if counts.pulses(IntensityClass.VACUUM) else math.nan
    return secret_key_rate_from_values(
        counts.gain(IntensityClass.SIGNAL),
        qber(counts, IntensityClass.SIGNAL),
        counts.gain(IntensityClass.DECOY),
        qber(counts, IntensityClass.DECOY),
        y0,
        source.mu,
        source.nu,
        source.rep_rate_hz,
    )


@dataclass(frozen=True)
class AnalyticChannel:
    """Closed-form channel for cross-checking the estimators.

    A photon survives with probability eta end to end; a frame clicks from
    darks with probability y0; detected photons misread with probability
    e_detector.  Dark errors are unbiased.
    """

    eta: float
    y0: float
    e_detector: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidInputError("eta must lie in [0, 1]")
        if not 0.0 <= self.y0 <= 1.0:
            raise InvalidInputError("y0 must lie in [0, 1]")
        if not 0.0 <= self.e_detector <= 0.5:
            raise InvalidInputError("e_detector must lie in [0, 0.5]")

    def yield_n(self, n: int) -> float:
        if n < 0:
            raise InvalidInputError("photon number must be non-negative")
        return 1.0 - (1.0 - self.y0) * (1.0 - self.eta) ** n

    def error_yield_n(self, n: int) -> float:
        """e_n * Y_n: dark half plus misread detections."""
        detect = 1.0 - (1.0 - self.eta) ** n
        return 0.5 * self.y0 * (1.0 - detect) + self.e_detector * detect

    def gain(self, mean_photons: float) -> float:
        if mean_photons < 0:
            raise InvalidInputError("mean photon number must be non-negative")
        return 1.0 - (1.0 - self.y0) * math.exp(-self.eta * mean_photons)

    def error_gain(self, mean_photons: float) -> float:
        detect = 1.0 - math.exp(-self.eta * mean_photons)
        return 0.5 * self.y0 * (1.0 - detect) + self.e_detector * detect

    def error_rate(self, mean_photons: float) -> float:
        """Error gain over gain; NaN at zero gain, where no event is recorded."""
        g = self.gain(mean_photons)
        return self.error_gain(mean_photons) / g if g else math.nan

    def rate(self, mu: float, nu: float, rep_rate_hz: float) -> KeyRateReport:
        return secret_key_rate_from_values(
            self.gain(mu),
            self.error_rate(mu),
            self.gain(nu),
            self.error_rate(nu),
            self.y0,
            mu,
            nu,
            rep_rate_hz,
        )
