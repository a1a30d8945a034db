from __future__ import annotations

import math

import numpy as np
import pytest

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


def test_drift_starts_at_zero_and_is_deterministic():
    model = DriftModel()
    assert drift_state(model, 0.0) == (0.0, 0.0)
    a = drift_state(model, 13.37)
    b = drift_state(model, 13.37)
    assert a == b
    assert drift_state(DriftModel(seed=1), 13.37) != a


def test_drift_stays_bounded():
    model = DriftModel(pump_power_rel_sigma=0.01, pump_polarization_sigma=0.02)
    rng = np.random.default_rng(8)
    for t in rng.uniform(0.0, 300.0, size=400):
        dpow, dpol = drift_state(model, float(t))
        assert abs(dpow) <= 5.0 * 0.01 + 1e-12
        assert abs(dpol) <= 5.0 * 0.02 + 1e-12


def test_drift_is_continuous_between_grid_points():
    model = DriftModel()
    bound = 5.0 * model.pump_power_rel_sigma
    rng = np.random.default_rng(9)
    for t in rng.uniform(0.0, 100.0, size=200):
        a = drift_state(model, float(t))[0]
        b = drift_state(model, float(t) + 0.01)[0]
        # linear interpolation of a walk confined to [-bound, bound]
        assert abs(b - a) <= 2.0 * bound * 0.01 + 1e-12


def test_zero_sigma_drift_is_identically_zero():
    model = DriftModel(pump_power_rel_sigma=0.0, pump_polarization_sigma=0.0)
    for t in (0.0, 1.0, 27.5, 100.0):
        assert drift_state(model, t) == (0.0, 0.0)


def test_derived_streams_are_keyed():
    a = derived_rng(7, 0, 1, 2).integers(0, 2**63, size=8)
    b = derived_rng(7, 0, 1, 2).integers(0, 2**63, size=8)
    c = derived_rng(7, 0, 2, 1).integers(0, 2**63, size=8)
    d = derived_rng(8, 0, 1, 2).integers(0, 2**63, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True, None])
def test_drift_model_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(InvalidInputError, match="seed"):
        DriftModel(seed=seed)
