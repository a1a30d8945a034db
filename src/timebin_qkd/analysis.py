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

from .detection import SessionCounts
from .errors import InvalidInputError, NoDataError
from .qubit import Basis
from .source import IntensityClass, SourceConfig

SETTING_LABELS = ("phase:0", "phase:1", "time:0", "time:1")

# Error-correction inefficiency and BB84 sifting factor of the rate formula.
F_EC = 1.22
SIFTING_FACTOR = 0.5

# The largest mu whose e**mu, a factor of the decoy bound on Y_1, is a float.
MAX_MU = math.log(sys.float_info.max)


def _setting_index(basis: Basis, bit: int) -> int:
    if basis not in (Basis.PHASE, Basis.TIME):
        raise InvalidInputError("settings exist only for the two BB84 bases")
    if bit not in (0, 1):
        raise InvalidInputError("bit must be 0 or 1")
    return int(basis) * 2 + bit


def probability_matrix(counts: SessionCounts) -> np.ndarray:
    """Measured conditional probabilities P(beta, j | alpha, i, clicked) of the signal class.

    A (4, 4) float64 array: rows are prepared settings, columns measured
    (pathway, slot), both in SETTING_LABELS order.  Each entry is its count
    over the row total, correctly rounded.
    """
    rows = counts.counts[IntensityClass.SIGNAL].reshape(4, 4)
    totals = rows.sum(axis=1)
    if not totals.all():
        empty = SETTING_LABELS[int(np.argmin(totals))]
        raise NoDataError(f"no recorded events for preparation {empty}")
    return rows / totals[:, None]


def conditional_probabilities(
    counts: SessionCounts,
    intensity: IntensityClass,
    alpha: Basis,
    i: int,
    beta: Basis,
) -> tuple[float, float]:
    """(P(j=0), P(j=1)) conditioned on measuring pathway beta."""
    c = counts.counts[int(intensity), int(alpha), i, int(beta)]
    total = int(c[0] + c[1])
    if total == 0:
        raise NoDataError(
            f"no events for preparation {SETTING_LABELS[_setting_index(alpha, i)]} "
            f"measured in the {Basis(beta).name.lower()} pathway"
        )
    return int(c[0]) / total, int(c[1]) / total


def fidelities(
    counts: SessionCounts, intensity: IntensityClass = IntensityClass.SIGNAL
) -> dict[tuple[Basis, int], float]:
    """Matched-basis readout fidelity per prepared setting.

    A setting without a matched-basis event has fidelity NaN.
    """
    c = counts.counts[int(intensity)]
    out = {}
    for alpha in (Basis.PHASE, Basis.TIME):
        for i in (0, 1):
            matched = int(c[alpha, i, alpha].sum())
            out[(alpha, i)] = int(c[alpha, i, alpha, i]) / matched if matched else math.nan
    return out


def qber(
    counts: SessionCounts, intensity: IntensityClass = IntensityClass.SIGNAL
) -> float:
    """Sifted error rate over matched-basis events of one intensity class."""
    matched = counts.matched_clicks(intensity)
    if matched == 0:
        raise NoDataError(
            f"no matched-basis events for class {IntensityClass(intensity).name.lower()}"
        )
    return counts.matched_errors(intensity) / matched


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
    y0: float | None
    flags: tuple[str, ...]


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
    nu must be strictly positive: a vacuum decoy carries no slope
    information and the bound degenerates.  mu must be at most MAX_MU.
    """
    if not (math.isfinite(mu) and math.isfinite(nu) and 0.0 < nu < mu):
        raise InvalidInputError("need 0 < nu < mu")
    if mu > MAX_MU:
        raise InvalidInputError(f"mu must be at most {MAX_MU}, where e**mu is still a float")
    for name, v in (("q_mu", q_mu), ("q_nu", q_nu), ("e_mu", e_mu), ("e_nu", e_nu)):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise InvalidInputError(f"{name} must lie in [0, 1]")
    if not (math.isfinite(y0) and 0.0 <= y0 <= 1.0):
        raise InvalidInputError("y0 must lie in [0, 1]")

    flags: list[str] = []
    coeff = mu / (mu * nu - nu * nu)
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
    return DecoyEstimates(y1, e1, q1, y0, tuple(flags))


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
    e_mu: float | None,
    q_nu: float,
    e_nu: float | None,
    y0: float | None,
    mu: float,
    nu: float,
    rep_rate_hz: float,
) -> KeyRateReport:
    """Rate formula on already-extracted gains and error rates.

    An error rate of None means its class had no matched-basis events; a
    y0 of None means no vacuum-class pulse was sent, so the background
    yield is unknown.  The decoy pair then bounds nothing, so the
    single-photon terms take their no-information values (Y_1 = Q_1 = 0,
    e_1 = 1) and the report carries the flag "no-decoy-events",
    "no-signal-events" or "no-vacuum-pulses".  Either way the rate is
    zero; without signal events it is zero by definition, since there is
    no sifted key to correct.
    """
    if not rep_rate_hz > 0:
        raise InvalidInputError("rep_rate_hz must be positive")
    missing = tuple(
        f"no-{name}-events" for name, e in (("signal", e_mu), ("decoy", e_nu)) if e is None
    ) + (("no-vacuum-pulses",) if y0 is None else ())
    if missing:
        est = DecoyEstimates(0.0, 1.0, 0.0, y0, missing)
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
    undefined, and a vacuum class that was never sent leaves the vacuum
    yield undefined; the rate is then zero, flagged "no-signal-events",
    "no-decoy-events" or "no-vacuum-pulses", rather than an error.
    """
    y0 = counts.gain(IntensityClass.VACUUM) if counts.pulses(IntensityClass.VACUUM) else None
    q_mu = counts.gain(IntensityClass.SIGNAL)
    q_nu = counts.gain(IntensityClass.DECOY)
    e_mu, e_nu = (
        qber(counts, cls) if counts.matched_clicks(cls) else None
        for cls in (IntensityClass.SIGNAL, IntensityClass.DECOY)
    )
    return secret_key_rate_from_values(
        q_mu,
        e_mu,
        q_nu,
        e_nu,
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
        g = self.gain(mean_photons)
        if g == 0.0:
            raise NoDataError("zero gain: error rate undefined")
        return self.error_gain(mean_photons) / g

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
