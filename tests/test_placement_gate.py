"""G-tests that the record's chunked placement of silent classes is uniform.

A block's record writes the classes the events left over onto its silent
frames PLACEMENT_CHUNK_FRAMES frames at a time: each chunk takes a
hypergeometric share of the classes not yet placed, and places its two
minority classes by one ordered sample of its own silent frames.  That
law gives every arrangement over all the silent frames the same
probability, across chunk boundaries too.  Here the chunk is 8 frames
and one block of FRAMES = 40 frames has four fixed event frames, so its
five chunks hold 6, 8, 7, 7 and 8 silent frames, and LEFT = 16, 12 and 8
of them take classes 0 (the fill), 1 and 2.  N_SEEDS blocks, each on
its own seed, go through `_tags_and_ledger`.

- Per frame: under uniform placement each silent frame holds class c
  with probability LEFT[c] / 36 on every seed.  The (36 frames, 3
  classes) table of counts over the seeds is compared with these shares
  by one G statistic.  Each seed fills every class's total exactly, so
  the table has both margins fixed, and G * 35 / 36 (the permutation
  variance of one seed's table is 36 / 35 that of a fixed-margin
  multinomial table) is chi-square on (36 - 1)(3 - 1) = 70 degrees of
  freedom.
- First chunk: the number of its 6 silent frames that hold class 1 or 2
  is hypergeometric, 6 draws from 36 of which 20 are minority.  Its
  histogram over the seeds is compared with that pmf by one G statistic
  on 6 degrees of freedom.

Seeds (PLACEMENT_SEED with the seed number) and ALPHA were fixed before
the first run.  A correct placement fails each test with probability
ALPHA.

Power.  The per-frame test's critical G on 70 degrees of freedom is
122.8, which a noncentrality of 79.6 exceeds with 90 % probability.  If
the first chunk's frames each held class 1 with probability raised by d,
and class 0 lowered by d, with the other 30 silent frames making up d / 5
each, the noncentrality would be about 20,000 * 36.75 * d**2, so d = 1.04
percentage points (1/3 to 34.4 %) is detected with 90 % power.  The
first-chunk test's critical G on 6 degrees of freedom is 27.9, which a
noncentrality of 37.4 exceeds with 90 % probability; a chunk count drawn
as if 21 of the 36 silent frames, not 20, were minority gives 441.

Negative controls place the same classes chunk by chunk and uniformly
within each chunk, but take each chunk's counts by another law: filling
the chunks in order, or splitting the minority classes in proportion to
the chunk's silent frames, with no hypergeometric draw.  The same
placement with the hypergeometric law is the positive control.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2, hypergeom

from timebin_qkd import detection
from timebin_qkd.detection import _N_EVENTS, Block, _tags_and_ledger
from timebin_qkd.experiment import ExperimentConfig
from timebin_qkd.qubit import BB84_SETTINGS

PLACEMENT_SEED = 20261019
CONTROL_SEED = 20261020
ALPHA = 1e-4
N_SEEDS = 20_000
N_CONTROL = 2_000
CHUNK = 8
FRAMES = 40
EVENTS = np.array([5, 6, 17, 30])
LEFT = np.array([16, 12, 8])
SILENT = np.setdiff1d(np.arange(FRAMES), EVENTS)
FIRST = int(np.count_nonzero(SILENT < CHUNK))


def g_value(observed, expected) -> float:
    hit = observed > 0
    return 2.0 * float(np.sum(observed[hit] * np.log(observed[hit] / expected[hit])))


def frame_g(rows) -> tuple[float, int]:
    """(scaled G, degrees of freedom) of the silent frames' classes against the uniform shares."""
    observed = np.stack([np.count_nonzero(rows == c, axis=0) for c in range(3)], axis=1)
    expected = np.broadcast_to(len(rows) * LEFT / LEFT.sum(), observed.shape)
    m = len(SILENT)
    return g_value(observed, expected) * (m - 1) / m, (m - 1) * 2


def first_chunk_g(rows) -> tuple[float, int]:
    """(G, degrees of freedom) of the first chunk's minority count against its pmf."""
    k = np.count_nonzero(rows[:, :FIRST], axis=1)
    observed = np.bincount(k, minlength=FIRST + 1)
    expected = len(rows) * hypergeom(LEFT.sum(), LEFT[1:].sum(), FIRST).pmf(np.arange(FIRST + 1))
    return g_value(observed, expected), FIRST


@pytest.fixture(scope="module")
def placements() -> np.ndarray:
    """(N_SEEDS, 36) classes of the silent frames, one row per seed."""
    cfg = ExperimentConfig()
    # every event is class 0, in cell 0; none is clustered
    unclustered = np.zeros(3 * _N_EVENTS, dtype=np.int64)
    unclustered[0] = len(EVENTS)
    class_totals = LEFT + [len(EVENTS), 0, 0]
    no_events = np.zeros(0, dtype=np.intp)
    rows = np.empty((N_SEEDS, len(SILENT)), dtype=np.int8)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detection, "PLACEMENT_CHUNK_FRAMES", CHUNK)
        for seed in range(N_SEEDS):
            block = Block(
                BB84_SETTINGS[1], FRAMES, cfg.budget, cfg.switch,
                np.random.default_rng([PLACEMENT_SEED, seed]),
            )
            _, ledger = _tags_and_ledger(
                block, class_totals, EVENTS, np.zeros(len(EVENTS), dtype=bool), no_events,
                no_events.astype(bool), unclustered, cfg.detector,
            )
            rows[seed] = ledger.class_idx[SILENT]
    assert not ledger.class_idx[EVENTS].any()
    assert ledger.alpha.all() and ledger.bit.all()
    return rows


def test_silent_frames_hold_each_class_with_its_share(placements):
    assert np.array_equal(
        [np.count_nonzero(placements == c, axis=1) for c in range(3)],
        np.repeat(LEFT[:, None], N_SEEDS, axis=1),
    )
    g, df = frame_g(placements)
    p = chi2.sf(g, df)
    print(f"placement gate, per frame: G = {g:.1f}, df = {df}, p = {p:.3g}")
    assert p > ALPHA, f"G = {g:.1f} on {df} df, p = {p:.3g}"


def test_first_chunk_count_is_hypergeometric(placements):
    g, df = first_chunk_g(placements)
    p = chi2.sf(g, df)
    print(f"placement gate, first chunk: G = {g:.1f}, df = {df}, p = {p:.3g}")
    assert p > ALPHA, f"G = {g:.1f} on {df} df, p = {p:.3g}"


def _controlled(counts_of) -> np.ndarray:
    """Rows placed chunk by chunk, with each chunk's (class 1, class 2) counts from
    counts_of(rng, left, quiet), left the (1, 2, 0) classes not yet placed."""
    rows = np.zeros((N_CONTROL, len(SILENT)), dtype=np.int8)
    chunk = SILENT // CHUNK
    for seed in range(N_CONTROL):
        rng = np.random.default_rng([CONTROL_SEED, seed])
        left = LEFT[[1, 2, 0]]
        for c in range(chunk[-1] + 1):
            spots = np.flatnonzero(chunk == c)
            k_a, k_b = counts_of(rng, left, len(spots))
            left -= (k_a, k_b, len(spots) - k_a - k_b)
            placed = spots[rng.permutation(len(spots))[: k_a + k_b]]
            rows[seed, placed[:k_a]] = 1
            rows[seed, placed[k_a:]] = 2
        assert not left.any()
    return rows


def _hypergeometric(rng, left, quiet):
    return rng.multivariate_hypergeometric(left, quiet, method="marginals")[:2].tolist()


def _in_order(rng, left, quiet):
    k_a = min(quiet, left[0])
    return k_a, min(quiet - k_a, left[1])


def _proportional(rng, left, quiet):
    return [round(int(v) * quiet / int(left.sum())) for v in left[:2]]


def test_statistics_reject_other_chunk_laws():
    right = _controlled(_hypergeometric)
    assert chi2.sf(*frame_g(right)) > ALPHA
    assert chi2.sf(*first_chunk_g(right)) > ALPHA
    for law in (_in_order, _proportional):
        wrong = _controlled(law)
        assert chi2.sf(*frame_g(wrong)) < ALPHA, law.__name__
        assert chi2.sf(*first_chunk_g(wrong)) < ALPHA, law.__name__
