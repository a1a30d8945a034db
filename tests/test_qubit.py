from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from timebin_qkd.errors import InvalidInputError
from timebin_qkd.qubit import (
    BB84_SETTINGS,
    Basis,
    PreparationSetting,
    TimeBinQubit,
    mub_states,
    overlap_probability,
    prepare_state,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_protocol_angles_prepare_the_four_states():
    assert prepare_state(0.0) == TimeBinQubit(1.0 + 0.0j, 0.0j)

    t1 = mub_states(Basis.TIME)[1]
    assert abs(overlap_probability(prepare_state(45.0), t1) - 1.0) < 1e-12
    # 45 deg lands on |t1> with an overall sign, which is unobservable
    assert abs(abs(cmath.phase(prepare_state(45.0).overlap(t1))) - math.pi) < 1e-12

    plus, minus = mub_states(Basis.PHASE)
    assert abs(overlap_probability(prepare_state(-22.5), plus) - 1.0) < 1e-12
    assert abs(overlap_probability(prepare_state(22.5), minus) - 1.0) < 1e-12


def test_bb84_settings_encode_their_own_states():
    for setting in BB84_SETTINGS:
        target = mub_states(setting.basis)[setting.bit]
        assert abs(overlap_probability(setting.state(), target) - 1.0) < 1e-12


def test_both_bases_are_mutually_unbiased():
    for b1 in Basis:
        for b2 in Basis:
            for i, s1 in enumerate(mub_states(b1)):
                for j, s2 in enumerate(mub_states(b2)):
                    p = overlap_probability(s1, s2)
                    if b1 == b2:
                        assert abs(p - (1.0 if i == j else 0.0)) < 1e-12
                    else:
                        assert abs(p - 0.5) < 1e-12


def test_prepared_states_stay_normalized():
    rng = np.random.default_rng(20240817)
    for angle in rng.uniform(-720.0, 720.0, size=500):
        q = prepare_state(float(angle))
        assert abs(q.norm_sq() - 1.0) < 1e-12


def test_wave_plate_has_180_degree_period():
    rng = np.random.default_rng(7)
    for angle in rng.uniform(-180.0, 180.0, size=200):
        a = prepare_state(float(angle))
        b = prepare_state(float(angle) + 180.0)
        assert abs(overlap_probability(a, b) - 1.0) < 2e-9


def test_overlap_probability_bounds_and_symmetry():
    rng = np.random.default_rng(99)
    for _ in range(200):
        a = prepare_state(float(rng.uniform(0, 180)))
        b = prepare_state(float(rng.uniform(0, 180)))
        p_ab = overlap_probability(a, b)
        p_ba = overlap_probability(b, a)
        assert 0.0 <= p_ab <= 1.0
        assert abs(p_ab - p_ba) < 1e-12


def test_state_validation():
    with pytest.raises(InvalidInputError):
        TimeBinQubit(1.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(InvalidInputError):
        TimeBinQubit(complex(math.nan), 0.0j)
    with pytest.raises(InvalidInputError):
        prepare_state(math.inf)


def test_preparation_setting_validation():
    with pytest.raises(InvalidInputError):
        PreparationSetting(0.0, Basis.TIME, 2)
    with pytest.raises(InvalidInputError):
        PreparationSetting(0.0, 2, 0)  # type: ignore[arg-type]


def test_mub_states_rejects_unknown_basis():
    with pytest.raises(InvalidInputError):
        mub_states(5)  # type: ignore[arg-type]
