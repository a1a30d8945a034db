from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from timebin_qkd.analysis import (
    MAX_MU,
    AnalyticChannel,
    binary_entropy,
    conditional_probabilities,
    decoy_bounds,
    decoy_coefficient,
    fidelities,
    probability_matrix,
    qber,
    secret_key_rate,
    secret_key_rate_from_values,
)
from timebin_qkd.detection import SessionCounts
from timebin_qkd.errors import ConfigError, InvalidInputError
from timebin_qkd.experiment import _require_decoy_and_vacuum
from timebin_qkd.qubit import Basis
from timebin_qkd.source import IntensityClass, SourceConfig


def _counts_with_rows(rows, pulses=1000):
    """Counts tensor with the four signal-class rows set to 4-vectors."""
    c = SessionCounts.zeros()
    c.pulses_sent[0] = pulses
    for r, row in enumerate(rows):
        alpha, i = divmod(r, 2)
        c.counts[0, alpha, i] = np.asarray(row, dtype=np.int64).reshape(2, 2)
    return c


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # frozen reference points
    assert binary_entropy(0.008) == pytest.approx(0.06722154475830686, abs=1e-14)
    assert binary_entropy(0.012) == pytest.approx(0.09377790984777166, abs=1e-14)
    rng = np.random.default_rng(55)
    for x in rng.uniform(0.0, 1.0, size=200):
        assert binary_entropy(float(x)) == pytest.approx(
            binary_entropy(float(1.0 - x)), abs=1e-12
        )
    with pytest.raises(InvalidInputError):
        binary_entropy(-0.01)
    with pytest.raises(InvalidInputError):
        binary_entropy(1.01)


def test_probability_matrix_entries_are_correctly_rounded_ratios():
    rows = [
        [30, 2, 6, 2],
        [1, 39, 5, 5],
        [4, 4, 70, 2],
        [3, 3, 1, 69],
    ]
    rng = np.random.default_rng(61)
    cases = [rows] + [rng.integers(1, 10**int(rng.integers(1, 12)), (4, 4)).tolist() for _ in range(200)]
    for case in cases:
        m = probability_matrix(_counts_with_rows(case, pulses=4 * 10**12))
        assert m.shape == (4, 4) and m.dtype == np.float64
        for row, row_counts in zip(m, case):
            total = sum(row_counts)
            # n / total is the correctly rounded float of the exact ratio
            for value, n in zip(row, row_counts):
                assert value == n / total == float(Fraction(n, total))
            assert abs(math.fsum(row) - 1.0) <= 4 * math.ulp(1.0)
    m = probability_matrix(_counts_with_rows(rows))
    assert m[0, 0] == 30 / 40 and m[2, 2] == 70 / 80


def test_probability_matrix_with_an_empty_row_is_none():
    counts = _counts_with_rows(
        [
            [10, 0, 0, 0],
            [0, 0, 0, 0],  # phase bit 1 starved
            [0, 0, 10, 0],
            [0, 0, 0, 10],
        ]
    )
    assert probability_matrix(counts) is None


def test_fidelities_and_qber_on_known_counts():
    counts = _counts_with_rows(
        [
            [96, 4, 10, 10],
            [2, 98, 10, 10],
            [10, 10, 99, 1],
            [10, 10, 3, 97],
        ]
    )
    f = fidelities(counts)
    assert f[(Basis.PHASE, 0)] == pytest.approx(0.96)
    assert f[(Basis.PHASE, 1)] == pytest.approx(0.98)
    assert f[(Basis.TIME, 0)] == pytest.approx(0.99)
    assert f[(Basis.TIME, 1)] == pytest.approx(0.97)
    # errors 4+2+1+3 over matched 100*4
    assert qber(counts) == pytest.approx(10.0 / 400.0)
    p = conditional_probabilities(counts, IntensityClass.SIGNAL, Basis.PHASE, 0, Basis.TIME)
    assert p == (0.5, 0.5)
    assert math.isnan(qber(counts, IntensityClass.DECOY))


def test_fidelity_of_a_setting_without_matched_events_is_nan():
    counts = _counts_with_rows(
        [
            [96, 4, 10, 10],
            [0, 0, 10, 10],  # phase bit 1: events only in the time pathway
            [10, 10, 99, 1],
            [0, 0, 0, 0],  # time bit 1: no events at all
        ]
    )
    f = fidelities(counts)
    assert f[(Basis.PHASE, 0)] == 0.96
    assert f[(Basis.TIME, 0)] == 0.99
    assert math.isnan(f[(Basis.PHASE, 1)]) and math.isnan(f[(Basis.TIME, 1)])
    assert all(math.isnan(v) for v in fidelities(counts, IntensityClass.DECOY).values())


_SIGNAL, _PHASE, _TIME = IntensityClass.SIGNAL, Basis.PHASE, Basis.TIME


@pytest.mark.parametrize(
    "call",
    [
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, -1, _TIME),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, 2, _TIME),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, True, _TIME),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, 1.0, _TIME),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, np.True_, _TIME),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, 0, 5),
        lambda c: conditional_probabilities(c, _SIGNAL, _TIME, 0, -1),
        lambda c: conditional_probabilities(c, _SIGNAL, -1, 0, _PHASE),
        lambda c: conditional_probabilities(c, _SIGNAL, False, 0, _PHASE),
        lambda c: conditional_probabilities(c, 3, _PHASE, 0, _PHASE),
        lambda c: conditional_probabilities(c, -1, _PHASE, 0, _PHASE),
        lambda c: conditional_probabilities(SessionCounts.zeros(), _SIGNAL, _TIME, -1, _TIME),
        lambda c: fidelities(c, -1),
        lambda c: fidelities(c, 3),
        lambda c: fidelities(c, True),
        lambda c: fidelities(c, "signal"),
        lambda c: qber(c, -1),
        lambda c: qber(c, 3),
        lambda c: qber(c, True),
        lambda c: qber(SessionCounts.zeros(), -1),
    ],
    ids=[
        "cond-bit-minus-1", "cond-bit-2", "cond-bit-true", "cond-bit-float", "cond-bit-numpy-bool",
        "cond-beta-5", "cond-beta-minus-1", "cond-alpha-minus-1", "cond-alpha-false",
        "cond-intensity-3", "cond-intensity-minus-1", "cond-no-counts-bit-minus-1",
        "fidelities-minus-1", "fidelities-3", "fidelities-true", "fidelities-str",
        "qber-minus-1", "qber-3", "qber-true", "qber-no-counts-minus-1",
    ],
)
def test_count_indices_are_checked_before_use(call):
    # every class holds events, so no call fails for want of data
    counts = _counts_with_rows([[96, 4, 10, 10], [2, 98, 10, 10], [10, 10, 99, 1], [10, 10, 3, 97]])
    counts.counts[1:] = counts.counts[0]
    counts.pulses_sent[1:] = counts.pulses_sent[0]
    with pytest.raises(InvalidInputError):
        call(counts)


def test_count_indices_take_numpy_and_plain_integers():
    counts = _counts_with_rows([[96, 4, 10, 10], [2, 98, 10, 10], [10, 10, 99, 1], [10, 10, 3, 97]])
    assert conditional_probabilities(counts, np.int64(0), 1, np.int8(1), Basis.TIME) == (0.03, 0.97)
    assert qber(counts, 0) == qber(counts) and fidelities(counts, np.uint8(0)) == fidelities(counts)


def test_decoy_bounds_hand_computed_case():
    """Fully worked numerical example, done with plain floats here and
    frozen; guards the algebra against sign and normalization slips."""
    mu, nu, y0 = 0.8, 0.1, 1e-5
    ch = AnalyticChannel(eta=0.0347, y0=y0, e_detector=0.008)
    q_mu, e_mu = ch.gain(mu), ch.error_rate(mu)
    q_nu, e_nu = ch.gain(nu), ch.error_rate(nu)
    est = decoy_bounds(q_mu, e_mu, q_nu, e_nu, mu, nu, y0)

    coeff = mu / (mu * nu - nu * nu)
    y1_by_hand = coeff * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    assert est.y1_lower == pytest.approx(y1_by_hand, rel=1e-12)
    e1_by_hand = (e_nu * q_nu * math.exp(nu) - 0.5 * y0) / (y1_by_hand * nu)
    assert est.e1_upper == pytest.approx(e1_by_hand, rel=1e-12)
    assert est.q1_lower == pytest.approx(y1_by_hand * mu * math.exp(-mu), rel=1e-12)
    assert est.flags == ()


def test_decoy_bounds_are_sound_across_channels():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        eta = float(10.0 ** rng.uniform(-3.0, -0.4))
        y0 = float(rng.uniform(0.0, 1e-4))
        ed = float(rng.uniform(0.0, 0.05))
        mu = float(rng.uniform(0.3, 1.0))
        nu = float(rng.uniform(0.02, 0.6 * mu))
        ch = AnalyticChannel(eta=eta, y0=y0, e_detector=ed)
        est = decoy_bounds(
            ch.gain(mu), ch.error_rate(mu), ch.gain(nu), ch.error_rate(nu), mu, nu, y0
        )
        y1_true = ch.yield_n(1)
        e1_true = ch.error_yield_n(1) / y1_true
        assert est.y1_lower <= y1_true + 1e-9
        assert est.e1_upper >= e1_true - 1e-9


def test_decoy_bound_tightness_at_operating_loss():
    y0 = 1.6e-7
    ch = AnalyticChannel(eta=0.03507518739525679, y0=y0, e_detector=0.008)
    est = decoy_bounds(
        ch.gain(0.8), ch.error_rate(0.8), ch.gain(0.1), ch.error_rate(0.1), 0.8, 0.1, y0
    )
    assert est.y1_lower / ch.yield_n(1) > 0.9


def test_decoy_bounds_validation_and_flags():
    with pytest.raises(InvalidInputError):
        decoy_bounds(0.03, 0.01, 0.004, 0.01, 0.8, 0.0, 0.0)  # vacuum decoy
    with pytest.raises(InvalidInputError):
        decoy_bounds(0.03, 0.01, 0.004, 0.01, 0.1, 0.8, 0.0)  # nu > mu
    with pytest.raises(InvalidInputError):
        decoy_bounds(1.5, 0.01, 0.004, 0.01, 0.8, 0.1, 0.0)

    # decoy gain consistent with zero single-photon yield
    est = decoy_bounds(0.5, 0.01, 1e-6, 0.5, 0.8, 0.1, 0.0)
    assert est.y1_lower == 0.0
    assert "no-single-photon-signal" in est.flags
    assert est.e1_upper == 1.0

    # tiny yield with a large decoy error rate pushes e1 past 1
    est = decoy_bounds(0.011, 0.01, 0.0015, 0.5, 0.8, 0.1, 0.0)
    if est.y1_lower > 0.0:
        assert "e1-clamped-one" in est.flags or est.e1_upper <= 1.0


def test_decoy_bounds_take_a_mu_only_while_its_exponential_is_a_float():
    # e**MAX_MU is the largest float power of e; at 709 the signal term
    # swamps the decoy term and Y_1 clamps to a flagged zero
    assert math.isfinite(math.exp(MAX_MU))
    for mu in (709.0, MAX_MU):
        est = decoy_bounds(1.0, 0.01, 0.5, 0.01, mu, 0.1, 0.0)
        assert est.y1_lower == 0.0 and "y1-clamped-zero" in est.flags
    for mu in (math.nextafter(MAX_MU, math.inf), 710.0, 800.0):
        with pytest.raises(InvalidInputError, match="mu"):
            decoy_bounds(1.0, 0.01, 0.5, 0.01, mu, 0.1, 0.0)


@pytest.mark.parametrize(
    "mu, nu",
    [
        (0.3, 5e-324),  # mu*nu - nu**2 rounds to zero
        (0.8, 1e-320),  # mu over it overflows, and Y_1, e_1 and Q_1 were NaN
        (MAX_MU, 5e-324),
    ],
)
def test_decoy_bounds_refuse_a_pair_whose_coefficient_is_no_float(mu, nu):
    with pytest.raises(InvalidInputError, match="nu"):
        decoy_bounds(0.03, 0.01, 0.001, 0.3, mu, nu, 0.001)


def test_key_rate_reproduces_hand_formula():
    mu, nu, y0 = 0.8, 0.1, 1.6e-7
    ch = AnalyticChannel(eta=0.03507518739525679, y0=y0, e_detector=0.008)
    report = ch.rate(mu, nu, 80e6)
    est = decoy_bounds(
        ch.gain(mu), ch.error_rate(mu), ch.gain(nu), ch.error_rate(nu), mu, nu, y0
    )
    by_hand = 0.5 * (
        -ch.gain(mu) * 1.22 * binary_entropy(ch.error_rate(mu))
        + est.q1_lower * (1.0 - binary_entropy(est.e1_upper))
    )
    assert report.r_per_pulse == pytest.approx(by_hand, rel=1e-12)
    assert report.r_bps == pytest.approx(by_hand * 80e6, rel=1e-12)
    # operating-point rate lands in the expected band
    assert 0.272e6 <= report.r_bps <= 0.408e6


def test_key_rate_clamps_to_zero_when_noisy():
    report = secret_key_rate_from_values(
        0.03, 0.11, 0.004, 0.11, 1e-5, 0.8, 0.1, 80e6
    )
    assert report.r_per_pulse == 0.0
    assert "rate-clamped-zero" in report.flags


def test_report_dict_keys_are_stable():
    ch = AnalyticChannel(eta=0.03, y0=1e-6, e_detector=0.008)
    d = ch.rate(0.8, 0.1, 80e6).to_dict()
    assert set(d) == {
        "Q_mu", "E_mu", "H2_E_mu", "Q_nu", "E_nu", "Y_0", "Y_1", "e_1", "Q_1",
        "mu", "nu", "f_rep_Hz", "f_EC", "sifting_factor", "R_per_pulse",
        "R_bps", "flags",
    }
    assert d["f_rep_Hz"] == 80e6


def test_secret_key_rate_without_vacuum_pulses_is_a_flagged_zero():
    counts = _counts_with_rows(
        [[96, 4, 10, 10], [2, 98, 10, 10], [10, 10, 99, 1], [10, 10, 3, 97]]
    )
    # some decoy-class events so the decoy gain is defined
    counts.pulses_sent[1] = 1000
    counts.counts[1, 0, 0, 0, 0] = 12
    counts.counts[1, 1, 0, 1, 0] = 14
    assert counts.gain(IntensityClass.VACUUM) == 0.0
    report = secret_key_rate(counts, SourceConfig())
    assert report.r_bps == 0.0
    assert report.y0 is None and report.to_dict()["Y_0"] is None
    assert (report.y1_lower, report.q1_lower, report.e1_upper) == (0.0, 0.0, 1.0)
    assert "no-vacuum-pulses" in report.flags
    counts.pulses_sent[2] = 1000
    report = secret_key_rate(counts, SourceConfig())
    assert report.y0 == 0.0
    assert "no-vacuum-pulses" not in report.flags
    assert report.q_mu == pytest.approx(counts.gain(IntensityClass.SIGNAL))


def test_decoy_class_without_matched_events_gives_flagged_zero_rate():
    counts = _counts_with_rows(
        [[96, 4, 10, 10], [2, 98, 10, 10], [10, 10, 99, 1], [10, 10, 3, 97]]
    )
    counts.pulses_sent[2] = 1000
    counts.pulses_sent[1] = 1000
    # decoy clicks only in the mismatched pathway: a gain but no error rate
    counts.counts[1, 0, 0, 1, 0] = 3
    assert math.isnan(qber(counts, IntensityClass.DECOY))
    report = secret_key_rate(counts, SourceConfig())
    assert report.r_bps == 0.0
    assert report.q_nu == pytest.approx(3 / 4000)
    assert report.e_nu is None
    assert (report.y1_lower, report.q1_lower, report.e1_upper) == (0.0, 0.0, 1.0)
    assert "no-decoy-events" in report.flags
    assert report.to_dict()["E_nu"] is None


def _counts_without(cls: IntensityClass) -> SessionCounts:
    """Counts with events in every cell of every class but `cls`, which was sent and saw none."""
    counts = SessionCounts.zeros()
    counts.pulses_sent[:] = 1000
    counts.counts[:] = 5
    counts.counts[cls] = 0
    return counts


def test_every_statistic_of_counts_without_events_is_nan_or_none():
    # no data is a value: a statistic without events for it is NaN, the
    # matrix None, and the report a flagged zero whose payload holds no NaN
    for counts in (SessionCounts.zeros(), *(_counts_without(cls) for cls in IntensityClass)):
        for cls in IntensityClass:
            empty = counts.clicks(cls) == 0
            assert math.isnan(qber(counts, cls)) == empty
            assert [math.isnan(f) for f in fidelities(counts, cls).values()] == [empty] * 4
            for alpha, i, beta in itertools.product(Basis, (0, 1), Basis):
                p = conditional_probabilities(counts, cls, alpha, i, beta)
                assert [math.isnan(v) for v in p] == [empty] * 2
        assert (probability_matrix(counts) is None) == (counts.clicks(IntensityClass.SIGNAL) == 0)
        report = secret_key_rate(counts, SourceConfig())
        assert report.r_per_pulse == report.r_bps == 0.0
        undefined = {
            "no-signal-events": counts.clicks(IntensityClass.SIGNAL) == 0,
            "no-decoy-events": counts.clicks(IntensityClass.DECOY) == 0,
            "no-vacuum-pulses": counts.pulses(IntensityClass.VACUUM) == 0,
        }
        assert [report.e_mu is None, report.e_nu is None, report.y0 is None] == list(
            undefined.values()
        )
        assert [f for f in report.flags if f in undefined] == [f for f, v in undefined.items() if v]
        json.dumps(report.to_dict(), allow_nan=False)
    # a channel with no gain at all: the closed form's error rates are NaN
    ch = AnalyticChannel(0, 0, 0)
    assert math.isnan(ch.error_rate(0.8)) and math.isnan(ch.error_rate(0.1))
    report = ch.rate(0.8, 0.1, 8e7)
    assert report.r_bps == 0.0 and report.flags == ("no-signal-events", "no-decoy-events")
    assert (report.e_mu, report.e_nu, report.y0) == (None, None, 0.0)
    json.dumps(report.to_dict(), allow_nan=False)


def _accepted(mu: float, nu: float) -> bool:
    try:
        _require_decoy_and_vacuum(SourceConfig(mu=mu, nu=nu))
    except ConfigError:
        return False
    return True


def _smallest_accepted_nu(mu: float) -> float:
    # positive floats order as their bit patterns, and a nu this small is
    # refused only below a threshold, so bisect the bit patterns
    def as_float(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    lo, hi = 0, int(np.float64(1e-300).view(np.int64))
    assert _accepted(mu, as_float(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _accepted(mu, as_float(mid)) else (mid, hi)
    return as_float(hi)


@pytest.mark.parametrize("mu", [0.3, 0.8, MAX_MU])
def test_the_flows_and_the_decoy_bounds_share_one_smallest_nu(mu):
    # the flows refuse a pair exactly where decoy_coefficient does
    nu = _smallest_accepted_nu(mu)
    assert math.isfinite(decoy_coefficient(mu, nu))
    with pytest.raises(InvalidInputError, match="nu"):
        decoy_coefficient(mu, math.nextafter(nu, 0.0))


def test_no_source_the_flows_accept_crashes_the_key_rate_report():
    # the edges of the (mu, nu) domain the flows accept: the smallest nu
    # beside a mu below 0.5, where mu*nu - nu**2 rounds to zero first, the
    # default mu and mu at MAX_MU, and MAX_MU with the default nu
    sources = [SourceConfig(mu=mu, nu=_smallest_accepted_nu(mu)) for mu in (0.3, 0.8, MAX_MU)]
    sources.append(SourceConfig(mu=MAX_MU, nu=0.1))
    signal = [[96, 4, 10, 10], [2, 98, 10, 10], [10, 10, 99, 1], [10, 10, 3, 97]]
    # decoy events all in the matched pathway, none an error; the vacuum
    # class either clicks as often as the decoy or is sent with no events
    equal_gains = _counts_with_rows(signal)
    no_vacuum_events = _counts_with_rows(signal)
    for counts in (equal_gains, no_vacuum_events):
        counts.pulses_sent[1:] = 1000
        counts.counts[1, 0, 0, 0, 0] = 5
        counts.counts[1, 1, 1, 1, 1] = 5
    equal_gains.counts[2, 0, 0, 0, 0] = 10
    assert equal_gains.gain(IntensityClass.DECOY) == equal_gains.gain(IntensityClass.VACUUM)
    assert no_vacuum_events.gain(IntensityClass.VACUUM) == 0.0
    for source in sources:
        for counts in (equal_gains, no_vacuum_events):
            report = secret_key_rate(counts, source)
            assert report.e_nu == 0.0
            values = (report.y1_lower, report.e1_upper, report.q1_lower, report.r_bps)
            assert all(math.isfinite(v) for v in values), (source, values)


def test_signal_class_without_matched_events_gives_flagged_zero_rate():
    counts = SessionCounts.zeros()
    counts.pulses_sent[:] = 1000
    # signal clicks only in the mismatched pathway: a gain but no error rate
    counts.counts[0, 0, 0, 1, 0] = 2
    counts.counts[2, 1, 1, 0, 1] = 1
    report = secret_key_rate(counts, SourceConfig())
    assert report.r_bps == report.r_per_pulse == 0.0
    assert report.q_mu == pytest.approx(2 / 4000)
    assert report.e_mu is None and report.e_nu is None
    assert (report.y1_lower, report.q1_lower, report.e1_upper) == (0.0, 0.0, 1.0)
    assert report.flags == ("no-signal-events", "no-decoy-events")
    d = report.to_dict()
    assert d["E_mu"] is None and d["H2_E_mu"] is None


def test_analytic_channel_limits():
    ch = AnalyticChannel(eta=0.05, y0=1e-5, e_detector=0.01)
    assert ch.gain(0.0) == pytest.approx(1e-5, rel=1e-9)
    assert ch.yield_n(0) == pytest.approx(1e-5, rel=1e-12)
    # with no photons the errors are dark-driven coin flips
    assert ch.error_rate(1e-9) == pytest.approx(0.5, abs=1e-3)
    # strong pulse saturates
    assert ch.gain(500.0) == pytest.approx(1.0, abs=1e-9)
    assert ch.error_rate(500.0) == pytest.approx(0.01, abs=1e-9)
    mus = np.linspace(0.01, 2.0, 50)
    gains = [ch.gain(float(m)) for m in mus]
    assert np.all(np.diff(gains) > 0)


def test_bound_rate_grows_as_the_decoy_weakens():
    # with exact gains the vacuum+weak bound tightens monotonically as the
    # decoy weakens, so the best decoy is the weakest one allowed
    ch = AnalyticChannel(eta=0.03507518739525679, y0=1.6e-7, e_detector=0.008)
    nus = np.linspace(0.7, 8e-4, 60)
    rates = [ch.rate(0.8, float(nu), 80e6).r_bps for nu in nus]
    assert np.all(np.diff(rates) > 0)
