"""G-test that the pulse ledger places the silent frames' classes uniformly.

A block's event frames carry their own classes; its silent frames carry
the class totals the events left over, and every arrangement of them must
be equally likely.  N_BLOCKS seeded blocks of BLOCK pulses each (default
config, no dead time, so every event frame has a tag and the silent frames
are exactly the pulses without one) go through `simulate_blocks`, and
each block's record is drawn.
Each silent frame is binned by its class and by the decile of its rank
among its block's silent frames.  Under uniform placement a block's 3 x 10
table has both margins fixed, the left-over class totals and the decile
sizes, and expectation outer(rows, columns) / silent frames.  The tables
and expectations of all blocks are summed and compared by one G statistic
on (3 - 1)(10 - 1) = 18 degrees of freedom.  Block-to-block variation of
the class margins makes the pooled test slightly conservative.

Seeds (LEDGER_SEED with the block number) and the threshold ALPHA were
fixed before the first run.  A correct ledger fails with probability ALPHA.

Power, against minority classes over-represented in the first half: if
each silent frame of the two smaller left-over classes lies in the first
half of its block's silent frames with probability (1 + d) / 2 rather
than 1/2, the noncentrality is d**2 * sum over blocks of (m + m**2 / f),
with m the block's minority and f its fill-class silent frames.  Here
m is about 1.20e6 and f about 2.72e6 in all, so lambda is about
1.72e6 * d**2.  The critical G is 49.2, which a noncentrality of 50.2
exceeds with 90% probability: the test detects d = 0.54% with 90% power,
that is 27 in 10,000 minority frames moved from the second half to the
first.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.stats import chi2

from timebin_qkd.detection import Block, simulate_blocks
from timebin_qkd.experiment import ExperimentConfig
from timebin_qkd.qubit import BB84_SETTINGS

from reference import ledger_columns, ledger_of_columns

LEDGER_SEED = 20261018
ALPHA = 1e-4
N_BLOCKS = 32
BLOCK = 125_000
DECILES = 10


def silent_frames(tags, ledger) -> np.ndarray:
    """Mask of a block's pulses without a tag; with no dead time, its silent frames."""
    silent = np.ones(len(ledger), dtype=bool)
    silent[tags.pulse_index - ledger.start_index] = False
    return silent


def silent_table(tags, ledger) -> np.ndarray:
    """(3, DECILES) counts of a block's silent frames by class and rank decile."""
    cls = ledger_columns(ledger)[0][silent_frames(tags, ledger)].astype(np.int64)
    decile = np.arange(len(cls)) * DECILES // max(len(cls), 1)
    return np.bincount(cls * DECILES + decile, minlength=3 * DECILES).reshape(3, DECILES)


def g_statistic(tables) -> tuple[float, int]:
    """(G, degrees of freedom) of the summed tables against uniform placement in each."""
    observed = np.zeros((3, DECILES))
    expected = np.zeros((3, DECILES))
    for table in tables:
        observed += table
        expected += np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    hit = observed > 0
    g = 2.0 * float(np.sum(observed[hit] * np.log(observed[hit] / expected[hit])))
    return g, (3 - 1) * (DECILES - 1)


def _records():
    cfg = ExperimentConfig()
    det = replace(cfg.detector, dead_time_ns=0.0)
    blocks = [
        Block(
            BB84_SETTINGS[b % 4], BLOCK, cfg.budget, cfg.switch,
            np.random.default_rng([LEDGER_SEED, b]), b * BLOCK,
        )
        for b in range(N_BLOCKS)
    ]
    for block, (_, sent, record) in zip(
        blocks, simulate_blocks(blocks, cfg.source, det, cfg.layout), strict=True
    ):
        yield block, sent, record()


def test_silent_frame_classes_are_placed_uniformly():
    tables = []
    for block, sent, (tags, ledger) in _records():
        alpha, i = int(block.setting.basis), block.setting.bit
        assert np.array_equal(np.bincount(ledger_columns(ledger)[0], minlength=3), sent[:, alpha, i])
        assert sent.sum() == sent[:, alpha, i].sum() == BLOCK
        tables.append(silent_table(tags, ledger))
    g, df = g_statistic(tables)
    p = chi2.sf(g, df)
    print(f"ledger gate: G = {g:.1f}, df = {df}, p = {p:.3g}")
    assert p > ALPHA, f"G = {g:.1f} on {df} df, p = {p:.3g}"


def test_g_statistic_rejects_sorted_placement():
    # one block's silent classes sorted: every minority frame in one end
    _, _, (tags, ledger) = next(_records())
    silent = silent_frames(tags, ledger)
    cls, alpha, bit = ledger_columns(ledger)
    cls[silent] = np.sort(cls[silent])
    ledger = ledger_of_columns(ledger.start_index, cls, alpha, bit)
    g, df = g_statistic([silent_table(tags, ledger)])
    assert chi2.sf(g, df) < ALPHA
