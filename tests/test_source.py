from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import reference

from timebin_qkd.errors import InvalidInputError
from timebin_qkd.source import (
    DriftModel,
    IntensityClass,
    LossBudget,
    SourceConfig,
    derived_rng,
    drift_state,
    sample_photon_number,
    transmittance,
)


def test_transmittance_frozen_values():
    assert transmittance(0.0) == 1.0
    assert transmittance(10.0) == pytest.approx(0.1, abs=1e-15)
    # 3 dB is not exactly one half
    assert transmittance(3.0) == pytest.approx(0.5011872336272722, abs=1e-15)
    with pytest.raises(InvalidInputError):
        transmittance(-1.0)
    with pytest.raises(InvalidInputError):
        transmittance(math.nan)


def test_default_loss_budget_totals():
    budget = LossBudget()
    assert budget.total_db == pytest.approx(14.55, abs=1e-12)
    assert budget.path_db == pytest.approx(14.55 - 2.2, abs=1e-12)
    assert transmittance(budget.total_db) == pytest.approx(
        0.03507518739525679, abs=1e-15
    )


def test_source_config_defaults_and_validation():
    src = SourceConfig()
    assert src.mean_for(IntensityClass.SIGNAL) == 0.8
    assert src.mean_for(IntensityClass.DECOY) == 0.1
    assert src.mean_for(IntensityClass.VACUUM) == 0.0
    assert src.frame_ps == pytest.approx(12500.0)

    with pytest.raises(InvalidInputError):
        SourceConfig(mu=0.0)
    with pytest.raises(InvalidInputError):
        SourceConfig(nu=0.9)  # nu >= mu
    with pytest.raises(InvalidInputError):
        SourceConfig(class_probabilities=(0.5, 0.5, 0.5))
    # NaN fails neither a "< 0" check nor the sum check
    with pytest.raises(InvalidInputError, match="finite"):
        SourceConfig(class_probabilities=(math.nan, 0.5, 0.5))
    for kwargs in ({"mu": math.inf}, {"rep_rate_hz": math.inf}, {"rep_rate_hz": math.nan}):
        with pytest.raises(InvalidInputError, match="finite"):
            SourceConfig(**kwargs)
    # a source without vacuum is valid; the key-rate flows reject it
    SourceConfig(class_probabilities=(0.8, 0.2, 0.0))


def test_poisson_statistics_match_the_mean():
    rng = np.random.default_rng(424242)
    n = 1_000_000
    draws = sample_photon_number(0.8, rng, size=n)
    # sample mean, 4 sigma
    assert abs(draws.mean() - 0.8) < 4.0 * math.sqrt(0.8 / n)
    # vacuum fraction against exp(-0.8)
    p0 = 0.44932896411722156
    frac = np.mean(draws == 0)
    assert abs(frac - p0) < 4.0 * math.sqrt(p0 * (1.0 - p0) / n)


def test_sample_photon_number_shapes():
    rng = np.random.default_rng(1)
    assert isinstance(sample_photon_number(0.5, rng), int)
    arr = sample_photon_number([0.5, 1.0, 0.0], rng)
    assert arr.shape == (3,)
    assert arr[2] == 0
    with pytest.raises(InvalidInputError):
        sample_photon_number(-0.1, rng)


def _drift(model: DriftModel, seed, times) -> list[tuple[float, float]]:
    """drift_state's two arrays as one (power, angle) pair of floats per time."""
    power, angle = drift_state(model, seed, times)
    return list(zip(power.tolist(), angle.tolist()))


def test_drift_state_is_two_float64_arrays_of_one_entry_per_time():
    for times in ([], [0.0], [13.37, 0.5, 2.0], range(5), np.linspace(0.0, 28.0, 57)):
        arrays = drift_state(DriftModel(), 4, times)
        assert len(arrays) == 2
        for a in arrays:
            assert a.dtype == np.float64 and a.shape == (len(times),)
    with pytest.raises(InvalidInputError):
        drift_state(DriftModel(), 0, [[1.0, 2.0]])


def test_drift_starts_at_zero_and_is_deterministic():
    model = DriftModel()
    assert _drift(model, 0, [0.0]) == [(0.0, 0.0)]
    (a,) = _drift(model, 0, [13.37])
    assert _drift(model, 0, [13.37]) == [a]
    assert _drift(model, 1, [13.37]) != [a]
    assert _drift(model, 0, []) == []


def test_drift_is_a_function_of_the_model_the_seed_and_the_time():
    model = DriftModel(pump_power_rel_sigma=0.01, pump_polarization_sigma=0.02)
    times = [0.5, 1.0, 7.25, 27.999]
    one = _drift(model, 1, times)
    # the same model, seed and times give the same values
    assert _drift(model, 1, times) == one
    # the master seed sets both walks
    two = _drift(model, 2, times)
    for channel in (0, 1):
        assert [v[channel] for v in one] != [v[channel] for v in two]
    # a time's value does not depend on the other times
    assert [_drift(model, 1, [t])[0] for t in times] == one
    assert _drift(model, 1, [*reversed(times), 300.0])[:-1] == one[::-1]


@pytest.mark.parametrize(
    "model, seed",
    [
        (DriftModel(), 0),
        (DriftModel(pump_power_rel_sigma=0.01, pump_polarization_sigma=0.02), 5),
        (DriftModel(pump_power_rel_sigma=0.0, pump_polarization_sigma=0.3), 2),
    ],
)
def test_drift_equals_the_per_time_walk_bit_for_bit(model, seed):
    # one walk drawn up to the last time gives every time the value of the
    # cached per-time walk, whose length was quantized to 64 hours
    grid = [0.0, 1.0, 27.0, 63.0, 64.0, 65.0, 127.0, 128.0, 300.0]
    fractional = [0.5, 13.37, 27.999, 63.5, 64.25, 200.75, 299.999]
    rng_times = np.random.default_rng(3).uniform(0.0, 300.0, size=50).tolist()
    for times in (grid, fractional, rng_times, sorted(rng_times), [0.0], [63.5], [64.0]):
        got = _drift(model, seed, times)
        want = [reference.drift_state_at(model, seed, t) for t in times]
        assert [tuple(map(float.hex, g)) for g in got] == [tuple(map(float.hex, w)) for w in want]
        # the same time gives the same value whatever the other times
        assert _drift(model, seed, times[:1]) == got[:1]


def test_drift_over_a_long_grid_holds_one_walk():
    # the per-time walks grew by 64 h and were cached per sample, so a
    # 20,000 h grid took 32 s and peaked at 125 MB
    model = DriftModel()
    times = np.arange(20_001.0)
    tracemalloc.start()
    try:
        power, angle = drift_state(model, 0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(power) == len(angle) == len(times)
    assert peak < 10 * (1 << 20), peak


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_drift_refuses_a_time_that_is_not_finite_and_non_negative(bad):
    with pytest.raises(InvalidInputError):
        drift_state(DriftModel(), 0, [1.0, bad])


def test_drift_stays_bounded():
    model = DriftModel(pump_power_rel_sigma=0.01, pump_polarization_sigma=0.02)
    rng = np.random.default_rng(8)
    for dpow, dpol in _drift(model, 0, rng.uniform(0.0, 300.0, size=400)):
        assert abs(dpow) <= 5.0 * 0.01 + 1e-12
        assert abs(dpol) <= 5.0 * 0.02 + 1e-12


def test_drift_is_continuous_between_grid_points():
    model = DriftModel()
    bound = 5.0 * model.pump_power_rel_sigma
    rng = np.random.default_rng(9)
    times = rng.uniform(0.0, 100.0, size=200)
    for (a, _), (b, _) in zip(_drift(model, 0, times), _drift(model, 0, times + 0.01)):
        # linear interpolation of a walk confined to [-bound, bound]
        assert abs(b - a) <= 2.0 * bound * 0.01 + 1e-12


def test_zero_sigma_drift_is_identically_zero():
    model = DriftModel(pump_power_rel_sigma=0.0, pump_polarization_sigma=0.0)
    assert _drift(model, 0, [0.0, 1.0, 27.5, 100.0]) == [(0.0, 0.0)] * 4


def test_derived_streams_are_keyed():
    a = derived_rng(7, 0, 1, 2).integers(0, 2**63, size=8)
    b = derived_rng(7, 0, 1, 2).integers(0, 2**63, size=8)
    c = derived_rng(7, 0, 2, 1).integers(0, 2**63, size=8)
    d = derived_rng(8, 0, 1, 2).integers(0, 2**63, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize(
    "sigmas",
    [
        {"pump_power_rel_sigma": 1e308},  # 5 sigma is infinite
        {"pump_polarization_sigma": 1e308},
        {"pump_power_rel_sigma": 0.21},  # the pump power could reach 1 - 1.05
        {"pump_power_rel_sigma": math.nan},
    ],
)
def test_drift_model_needs_finite_bounds_and_a_non_negative_pump_power(sigmas):
    with pytest.raises(InvalidInputError, match=next(iter(sigmas))):
        DriftModel(**sigmas)


def test_drift_model_takes_a_pump_power_bound_of_one():
    model = DriftModel(pump_power_rel_sigma=0.2)
    assert min(dpow for dpow, _ in _drift(model, 3, range(500))) >= -1.0


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True, None, np.float64(3.0), np.int64(-1)])
def test_drift_state_seed_must_be_a_non_negative_integer(seed):
    # None would draw the walk from fresh entropy, and True would run as seed 1
    with pytest.raises(InvalidInputError, match="seed"):
        drift_state(DriftModel(), seed, [13.37])


def test_drift_state_takes_a_numpy_integer_seed_as_int():
    assert _drift(DriftModel(), np.int64(3), [13.37]) == _drift(DriftModel(), 3, [13.37])
