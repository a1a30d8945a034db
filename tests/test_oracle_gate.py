"""Multinomial G-test of the block simulator against the closed-form oracle.

Each case simulates the four BB84 preparations, N_PER_SETTING pulses each
in 1e6-pulse blocks, and compares the counted cells of every preparation
with `oracle.expected_counts`.  Cells expected below MIN_EXPECTED are
pooled with the no-count remainder so the chi-square approximation holds;
a cell the oracle rules out (expectation 0) must stay empty.  The four
preparations are independent multinomials, so their G statistics and
degrees of freedom add.

Seeds (GATE_SEED with the case and block coordinates) and the threshold
ALPHA were fixed before the first run.  With 38 cases, a correct simulator
fails some case with probability about 38 * ALPHA = 0.4%.

Power, in the nominal case: the vacuum cells pool into the remainder,
leaving 32 degrees of freedom and a critical G of 70.6, which a
noncentrality of 60.3 exceeds with 90% probability.  A relative shift of
one signal cell of one preparation, balanced by the no-count remainder, is
therefore detected with 90% power from 4.0% in the largest cell (about
36,900 events), 5.7% in a pathway-mismatched cell (about 18,600 events)
and 45% in an error cell (about 300 events).  A common shift of all 16
signal cells is detected from 1.4%.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from oracle import expected_counts
from timebin_qkd.detection import simulate_block
from timebin_qkd.experiment import ExperimentConfig
from timebin_qkd.qubit import BB84_SETTINGS
from timebin_qkd.switch import with_delay

GATE_SEED = 20261017
ALPHA = 1e-4
N_PER_SETTING = 4_000_000
BLOCK = 1_000_000
MIN_EXPECTED = 5.0

# (stray policy, double-click policy, recombination phase, pump delay ps,
# dark rate Hz); the high dark rate makes doubles and dead time matter.
CASES = [
    (stray, double, phase, delay, 100.0)
    for stray in ("random", "discard", "by_polarization")
    for double in ("random", "discard")
    for phase in (0.0, 0.3)
    for delay in (0.0, 2.25, 4.5)
] + [("random", "random", 0.0, 0.0, 1e7), ("random", "discard", 0.0, 0.0, 1e7)]


def _config(stray, double, phase, delay, dark_hz) -> ExperimentConfig:
    base = ExperimentConfig()
    det = replace(
        base.detector,
        stray_time_policy=stray,
        double_click_policy=double,
        recombination_phase=phase,
        dark_count_rate_hz=dark_hz,
    )
    return replace(base, detector=det, switch=with_delay(base.switch, delay))


def g_statistic(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """(G, degrees of freedom) of one multinomial; the last entry is the remainder."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert np.all(observed[:-1][expected[:-1] == 0.0] == 0.0), "event in an impossible cell"
    small = expected[:-1] < MIN_EXPECTED
    obs = np.append(observed[:-1][~small], observed[-1] + observed[:-1][small].sum())
    exp = np.append(expected[:-1][~small], expected[-1] + expected[:-1][small].sum())
    hit = obs > 0
    g = 2.0 * float(np.sum(obs[hit] * np.log(obs[hit] / exp[hit])))
    return g, len(obs) - 1


def gate_case(case_index: int, cfg: ExperimentConfig) -> tuple[float, int]:
    g_total, df_total = 0.0, 0
    for s_idx, prep in enumerate(BB84_SETTINGS):
        observed = np.zeros((3, 2, 2), dtype=np.int64)
        for b in range(N_PER_SETTING // BLOCK):
            rng = np.random.default_rng([GATE_SEED, case_index, s_idx, b])
            counts = simulate_block(
                prep, BLOCK, cfg.source, cfg.budget, cfg.switch, cfg.detector, cfg.layout, rng
            )
            observed += counts.counts[:, int(prep.basis), prep.bit]
        cells, rest = expected_counts(cfg, prep, N_PER_SETTING)
        obs = np.append(observed.ravel(), N_PER_SETTING - observed.sum())
        g, df = g_statistic(obs, np.append(cells.ravel(), rest))
        g_total += g
        df_total += df
    return g_total, df_total


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_block_counts_match_closed_form(case_index):
    case = CASES[case_index]
    g, df = gate_case(case_index, _config(*case))
    p = chi2.sf(g, df)
    print(f"gate {case}: G = {g:.1f}, df = {df}, p = {p:.3g}")
    assert p > ALPHA, f"{case}: G = {g:.1f} on {df} df, p = {p:.3g}"


def test_g_statistic_pools_small_cells():
    g, df = g_statistic([10, 2, 88], [10.0, 1.0, 89.0])
    assert df == 1  # the E = 1 cell joins the remainder
    assert g == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(AssertionError):
        g_statistic([1, 0, 99], [0.0, 10.0, 90.0])
