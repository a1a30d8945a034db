from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd.errors import InvalidInputError
from timebin_qkd.qubit import mub_states, prepare_state, Basis
from timebin_qkd.switch import (
    DEFAULT_BIN_SEPARATION_PS,
    DEFAULT_PUMP_FWHM_PS,
    DEFAULT_SIGNAL_FWHM_PS,
    POL_H,
    POL_V,
    SwitchModel,
    _normal_cdf,
    _overlap_weight,
    apply_switch_both_bins,
    effective_efficiency,
    nonlinear_phase,
    switching_efficiency,
    transform_limited_fwhm_ps,
    with_delay,
)

_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def test_transform_limited_pulse_widths():
    # 0.441 * lambda^2 / (c * d_lambda), frozen for the two operating pulses
    assert transform_limited_fwhm_ps(720.8, 1.7) == pytest.approx(
        0.44957124038123747, abs=1e-12
    )
    assert transform_limited_fwhm_ps(800.0, 2.1) == pytest.approx(
        0.4483101439463163, abs=1e-12
    )
    assert DEFAULT_SIGNAL_FWHM_PS == pytest.approx(0.44957124038123747, abs=1e-12)
    assert DEFAULT_PUMP_FWHM_PS == pytest.approx(0.4483101439463163, abs=1e-12)


def test_switching_efficiency_formula():
    assert switching_efficiency(math.pi / 4.0, math.pi) == pytest.approx(1.0, abs=1e-15)
    assert switching_efficiency(0.0, math.pi) == 0.0
    assert switching_efficiency(math.pi / 4.0, 0.0) == 0.0
    rng = np.random.default_rng(31415)
    theta = rng.uniform(0.0, math.pi / 2.0, size=2000)
    dphi = rng.uniform(0.0, 4.0 * math.pi, size=2000)
    expected = np.sin(2.0 * theta) ** 2 * np.sin(dphi / 2.0) ** 2
    got = np.array([switching_efficiency(t, p) for t, p in zip(theta, dphi)])
    assert np.max(np.abs(got - expected)) < 1e-12


def test_nonlinear_phase_scaling():
    n2 = 2.2e-18  # m^2/W
    l_eff = 0.08
    lam = 720.8e-9
    base = nonlinear_phase(n2, l_eff, 1e12, lam)
    assert nonlinear_phase(n2, l_eff, 2e12, lam) == pytest.approx(2.0 * base, rel=1e-12)
    assert nonlinear_phase(n2, l_eff, 0.0, lam) == 0.0
    # invert for the pi point and check round trip
    i_pi = 3.0 * lam * math.pi / (8.0 * math.pi * n2 * l_eff)
    assert nonlinear_phase(n2, l_eff, i_pi, lam) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(InvalidInputError):
        nonlinear_phase(-n2, l_eff, 1e12, lam)
    with pytest.raises(InvalidInputError):
        nonlinear_phase(n2, l_eff, -1.0, lam)


def _brute_force_overlap(model: SwitchModel, delay_ps: float, n: int = 4001) -> float:
    """Direct 2-D quadrature of the pump-across-signal slide integral."""
    sig_s = model.signal_fwhm_ps * _FWHM_TO_SIGMA
    sig_p = model.pump_fwhm_ps * _FWHM_TO_SIGMA
    half = 0.5 * model.walkoff_ps
    s = np.linspace(-10.0 * sig_s, 10.0 * sig_s, n)
    signal = np.exp(-0.5 * (s / sig_s) ** 2)
    signal /= np.trapezoid(signal, s)
    u = np.linspace(delay_ps - half, delay_ps + half, n)
    pump = np.exp(-0.5 * ((u[None, :] - s[:, None]) / sig_p) ** 2) / (
        sig_p * math.sqrt(2.0 * math.pi)
    )
    inner = np.trapezoid(pump, u, axis=1)
    return float(np.trapezoid(signal * inner, s))


def test_overlap_weight_matches_quadrature():
    model = SwitchModel()
    for d in (0.0, 1.5, 3.0, 4.5, -2.0, 6.0):
        closed = _overlap_weight(model, d)
        brute = _brute_force_overlap(model, d)
        assert closed == pytest.approx(brute, abs=1e-4), f"delay {d}"


def test_overlap_weight_plateau_and_edges():
    model = SwitchModel()
    assert _overlap_weight(model, model.pump_delay_ps) > 1.0 - 1e-12
    # half maximum sits exactly at half the walkoff window
    half = 0.5 * model.walkoff_ps
    assert _overlap_weight(model, half) == pytest.approx(0.5, abs=1e-8)
    assert _overlap_weight(model, -half) == pytest.approx(0.5, abs=1e-8)
    rng = np.random.default_rng(5)
    for d in rng.uniform(-8.0, 8.0, size=100):
        w_pos = _overlap_weight(model, float(d))
        w_neg = _overlap_weight(model, float(-d))
        assert 0.0 <= w_pos <= 1.0
        assert abs(w_pos - w_neg) < 1e-12


def test_effective_efficiency_operating_point_and_detuned():
    model = SwitchModel()
    assert effective_efficiency(model) > 1.0 - 1e-12
    # a pump displaced by one bin separation no longer switches this bin
    assert effective_efficiency(with_delay(model, DEFAULT_BIN_SEPARATION_PS)) < 1e-14


def test_both_bins_split_each_bin_by_its_own_efficiency():
    rng = np.random.default_rng(12)
    for _ in range(100):
        q = prepare_state(float(rng.uniform(0, 180)))
        model = SwitchModel(
            theta=float(rng.uniform(0.05, math.pi / 2 - 0.05)),
            delta_phi_peak=float(rng.uniform(0.0, math.pi)),
            pump_delay_ps=float(rng.uniform(-2.0, 8.0)),
        )
        out = apply_switch_both_bins(q, model)
        assert sum(abs(a) ** 2 for pair in out for a in pair) == pytest.approx(1.0, abs=1e-12)
        # the late bin meets the pump one bin separation earlier
        late = with_delay(model, model.pump_delay_ps - model.bin_separation_ps)
        for b, amp, eta in ((0, q.amp_t0, effective_efficiency(model)),
                            (1, q.amp_t1, effective_efficiency(late))):
            assert abs(out.amp(b, POL_V)) ** 2 == pytest.approx(eta * abs(amp) ** 2, abs=1e-12)
            assert abs(out.amp(b, POL_H)) ** 2 == pytest.approx(
                (1.0 - eta) * abs(amp) ** 2, abs=1e-12
            )


def test_apply_switch_full_transfer():
    q = prepare_state(0.0)
    out = apply_switch_both_bins(q, SwitchModel())
    assert abs(out.amp(0, POL_V)) == pytest.approx(1.0, abs=1e-9)
    assert abs(out.amp(0, POL_H)) < 1e-6


def test_both_bins_reduces_to_single_target_at_operating_point():
    model = SwitchModel()
    for angle in (0.0, 45.0, -22.5, 22.5):
        q = prepare_state(angle)
        out = apply_switch_both_bins(q, model)
        # the early bin transfers fully to V, the late bin passes as H
        assert abs(out.amp(0, POL_V)) == pytest.approx(abs(q.amp_t0), abs=1e-7)
        assert abs(out.amp(0, POL_H)) < 1e-6
        assert out.amp(1, POL_H) == pytest.approx(q.amp_t1, abs=1e-7)
        assert abs(out.amp(1, POL_V)) < 1e-7


def test_both_bins_swaps_roles_when_pump_delayed_by_bin_separation():
    model = with_delay(SwitchModel(), DEFAULT_BIN_SEPARATION_PS)
    q = prepare_state(45.0)  # all amplitude in the late bin
    out = apply_switch_both_bins(q, model)
    assert abs(out.amp(1, POL_V)) == pytest.approx(1.0, abs=1e-7)
    assert abs(out.amp(0, POL_V)) < 1e-7


def test_model_validation():
    with pytest.raises(InvalidInputError):
        SwitchModel(theta=-0.1)
    with pytest.raises(InvalidInputError):
        SwitchModel(delta_phi_peak=-1.0)
    with pytest.raises(InvalidInputError):
        SwitchModel(walkoff_ps=0.0)
    with pytest.raises(InvalidInputError):
        SwitchModel(pump_fwhm_ps=-1.0)


@pytest.mark.parametrize("name", [
    "theta", "delta_phi_peak", "pump_fwhm_ps", "signal_fwhm_ps", "walkoff_ps",
    "pump_delay_ps", "bin_separation_ps",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_requires_every_field_finite(name, value):
    with pytest.raises(InvalidInputError, match=name):
        SwitchModel(**{name: value})


def test_with_delay_changes_only_the_delay():
    model = SwitchModel()
    moved = with_delay(model, 2.5)
    assert moved.pump_delay_ps == 2.5
    assert replace(moved, pump_delay_ps=model.pump_delay_ps) == model


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    edge = 1.0  # x / sqrt(2) == sqrt(1/2): where erf hands over to erfc
    special = [0.0, -0.0, math.inf, -math.inf]
    for x in (edge, -edge):
        special += [x, math.nextafter(x, 0.0), math.nextafter(x, 2.0 * x)]
    xs = np.concatenate([np.linspace(-40.0, 40.0, 400_001), special])
    got = np.array([_normal_cdf(float(x)) for x in xs])
    assert np.max(np.abs(got - ndtr(xs))) <= 2.3e-16
    assert (_normal_cdf(-math.inf), _normal_cdf(0.0), _normal_cdf(math.inf)) == (0.0, 0.5, 1.0)
    assert math.isnan(_normal_cdf(math.nan))
