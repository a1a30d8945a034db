"""Closed-form expected counts of one preparation setting, for the tests.

The block simulator treats frames as independent: it draws the event
frames as a Bernoulli process (geometric gaps between events), each
event's cell from one law whatever its neighbours, and the silent
frames' classes as counts.  So the expected number of counted events in
every [class][beta][j] cell follows from per-frame probabilities alone:

- class c with probability class_probabilities[c] and mean photon number
  mean_c;
- a photon click with probability 1 - exp(-mean_c * T), where T is the
  path transmittance times the detector efficiency (Poisson thinning);
- the 50:50 pathway beta, then the projection `_projection` and the
  intrinsic bit flip;
- an independent dark click in each of the pathway's two windows, with
  the probability `dark_prob_per_window` of the layout's width;
- the double-click policy: "random" splits a double 50:50 between the two
  bits, "discard" drops it.

Dead time enters as the non-paralyzable factor 1 / (1 + B * r_d) on every
cell of detector d, where B is the dead time in frames and r_d the
per-frame probability that detector d clicks.  The greedy rule (a kept
click blocks the next B frames of its detector) makes kept clicks a
renewal process with mean cycle B + 1/r_d frames, so the factor is exact
up to the restart at each block boundary.

The oracle and the engine share the switch and the projection
(`apply_switch_both_bins`, then `_projection`), so a gate built
on this oracle checks the sampler: the draws, dead time, the double-click
policy and the tally.
"""

from __future__ import annotations

import math

import numpy as np

from timebin_qkd.detection import _projection, dark_prob_per_window
from timebin_qkd.qubit import Basis, PreparationSetting
from timebin_qkd.source import transmittance
from timebin_qkd.switch import apply_switch_both_bins


def expected_counts(config, prep: PreparationSetting, n: int) -> tuple[np.ndarray, float]:
    """(E[N] per [class][beta][j] cell, E[frames with no counted event]) for n pulses."""
    src, det = config.source, config.detector
    sw = apply_switch_both_bins(prep.state(), config.switch)
    t = transmittance(config.budget.path_db) * transmittance(config.budget.detector_db)
    e = det.intrinsic_error
    pd = dark_prob_per_window(det, config.layout)
    dead_frames = math.ceil(det.dead_time_ns * 1e3 / src.frame_ps)
    share = 0.5 if det.double_click_policy == "random" else 0.0

    cells = np.zeros((3, 2, 2))
    clicking = np.zeros(2)  # per-frame click probability of each detector
    for c, p_class in enumerate(src.class_probabilities):
        p_photon = -math.expm1(-src.mean_for(c) * t)
        for beta in (Basis.PHASE, Basis.TIME):
            p0, p1, _ = _projection(sw, det)[int(beta)]
            sig0 = p_photon * (p0 * (1.0 - e) + p1 * e)
            sig1 = p_photon * (p1 * (1.0 - e) + p0 * e)
            silent = 1.0 - sig0 - sig1
            only0 = (1.0 - pd) * (sig0 + silent * pd)
            only1 = (1.0 - pd) * (sig1 + silent * pd)
            double = (sig0 + sig1) * pd + silent * pd * pd
            w = 0.5 * p_class
            cells[c, beta, 0] = w * (only0 + share * double)
            cells[c, beta, 1] = w * (only1 + share * double)
            clicking[beta] += w * (only0 + only1 + double)

    cells *= (1.0 / (1.0 + dead_frames * clicking))[None, :, None]
    expected = n * cells
    return expected, n - float(expected.sum())
