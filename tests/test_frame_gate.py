"""G-tests of the frame law: where the sampler puts events, and which cell each gets.

Frames are independent, so the event frames of a block are a Bernoulli
process of the block's event probability q and every event's cell
(class, pathway, clicks) is drawn from the same law, whatever its
neighbours.  The sampler draws the frames from geometric gaps, gives
each clustered event (one within the dead time B of a neighbour) its own
cell and the other events their cells as counts, which the record
arranges over their frames.  N_BLOCKS seeded blocks of BLOCK pulses at
DARK_HZ (so that darks, doubles and dead time matter), no jitter (so
that each tag's window is exact), go through `simulate_blocks`, and each
block's record is drawn.  A twin of every block, on the same seed,
goes through the draw stage alone, which names each block's event
frames and its clustered events, including those dead time silenced.

- Spacings: the gap from each event at least 2B frames before the
  block's end to the next event is binned as 1..B, B+1..2B or >2B; each
  bin is observed in full, and by the memoryless property every such gap
  is an independent Geometric(q) draw.  One G statistic on 2 degrees of
  freedom compares the pooled bins with their expectations.
- Cells: each event is put in one of 18 observable cells (class,
  pathway, clicks in window 0, 1 or both), from the record for an
  unclustered event, which dead time leaves alone, and from the drawn
  cell for a clustered one.  Its column is whether it is clustered and
  the decile of its rank among its block's events.  Under the frame law
  cell and column are independent: one G test of independence per
  preparation, with cells expected below MIN_EXPECTED pooled, and the
  G statistics and degrees of freedom of the four added.

Seeds (FRAME_SEED with the block number) and ALPHA were fixed before the
first run.  A correct sampler fails each test with probability ALPHA.

Power.  About 1.29e6 gaps are binned, with expected shares 13.5 %,
11.7 % and 74.8 % at q = 0.0357.  The critical G on 2 degrees of
freedom is 18.4, which a noncentrality of 29.9 exceeds with 90 %
probability, so moving 1.2 % of the first bin's gaps into the third
(about 2,100 of 174,000) is detected with 90 % power.  The cells test
sees about 1.29e6 events, a quarter of them clustered; its critical G
on about 1,064 degrees of freedom is 1,244, which a noncentrality of
251 exceeds with 90 % probability.  A relative change d in the share of
the largest cell among the clustered events alone (a wrong inversion;
about 68,000 events, the signal class's phase-pathway clicks in window
1) is detected with 90 % power from d = 4.5 %, and one among the events
of the first half of each block's record (a partial shuffle; about
135,000 events, the signal class's time-pathway clicks in window 1)
from d = 3.9 %.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.stats import chi2

from timebin_qkd.detection import (
    _CELL_CLASS,
    _CELL_STATE,
    _EVENT_BETA,
    _EVENT_CLICK0,
    _EVENT_CLICK1,
    WINDOW_CENTERS_PS,
    Block,
    _dead_frames,
    _draw_events,
    _event_tables,
    simulate_blocks,
)
from timebin_qkd.experiment import ExperimentConfig
from timebin_qkd.qubit import BB84_SETTINGS

from reference import ledger_columns

FRAME_SEED = 20261019
ALPHA = 1e-4
N_BLOCKS = 36
BLOCK = 1_000_000
DARK_HZ = 1e7
DECILES = 10
MIN_EXPECTED = 5.0


def _config():
    cfg = ExperimentConfig()
    det = replace(cfg.detector, dark_count_rate_hz=DARK_HZ, jitter_sigma_ps=0.0)
    return replace(cfg, detector=det)


def _blocks(cfg):
    return [
        Block(
            BB84_SETTINGS[b % 4], BLOCK, cfg.budget, cfg.switch,
            np.random.default_rng([FRAME_SEED, b]), b * BLOCK,
        )
        for b in range(N_BLOCKS)
    ]


def _drawn(cfg):
    """(blocked, q per block, the draw stage's output) of the twin blocks."""
    blocks = _blocks(cfg)
    tables = _event_tables(blocks, cfg.source, cfg.detector, cfg.layout)
    blocked = min(_dead_frames(cfg.detector, cfg.source), BLOCK)
    silent = np.array(cfg.source.class_probabilities) @ tables[:, :, -1].T
    drawn = _draw_events(blocks, cfg.source, tables, blocked, BLOCK + blocked + 1)
    return blocked, 1.0 - silent, drawn


def spacing_bins(frames: np.ndarray, n: int, blocked: int) -> np.ndarray:
    """Counts of the gaps after events before frame n - 2B: 1..B, B+1..2B, >2B."""
    starts = frames[frames < n - 2 * blocked]
    gaps = np.append(np.diff(frames), 2 * blocked + 1)[: len(starts)]
    return np.bincount(np.minimum((gaps - 1) // blocked, 2), minlength=3)


def geometric_bins(q: float, blocked: int) -> np.ndarray:
    """P(G <= B), P(B < G <= 2B) and P(G > 2B) for G ~ Geometric(q) on 1, 2, ..."""
    tail = (1.0 - q) ** blocked
    return np.array([1.0 - tail, tail - tail * tail, tail * tail])


def g_statistic(observed: np.ndarray, expected: np.ndarray) -> float:
    hit = observed > 0
    return 2.0 * float(np.sum(observed[hit] * np.log(observed[hit] / expected[hit])))


def independence(table: np.ndarray) -> tuple[float, int]:
    """(G, df) of independence of rows and columns; rows expected below
    MIN_EXPECTED in some column are pooled into one."""
    table = np.asarray(table, dtype=float)
    cols = table.sum(axis=0) / table.sum()
    small = table.sum(axis=1)[:, None] * cols[None, :] < MIN_EXPECTED
    rare = small.any(axis=1)
    pooled = np.vstack([table[~rare], table[rare].sum(axis=0, keepdims=True)])
    pooled = pooled[pooled.sum(axis=1) > 0]
    expected = np.outer(pooled.sum(axis=1), pooled.sum(axis=0)) / pooled.sum()
    return g_statistic(pooled, expected), (pooled.shape[0] - 1) * (pooled.shape[1] - 1)


def observed_cells(cfg, tags, ledger, frames) -> np.ndarray:
    """Each event frame's observable cell from the record: class * 6 + pathway * 3 + clicks,
    clicks 0 for window 0 only, 1 for window 1 only and 2 for both; -1 without a tag."""
    start = ledger.start_index
    centers = np.rint(np.reshape(WINDOW_CENTERS_PS, (2, 2))).astype(np.int64)
    window = (tags.timestamp_ps == centers[tags.detector_id, 1]).astype(np.int64)
    pattern = np.bincount(tags.pulse_index - start, weights=1 << window, minlength=len(ledger))
    pathway = np.zeros(len(ledger), dtype=np.int64)
    pathway[tags.pulse_index - start] = tags.detector_id
    # every event frame is an event pulse of the ledger, in frame order
    assert np.array_equal(ledger.index, start + frames)
    cell = ledger_columns(ledger)[0] * 6 + pathway[frames] * 3 + pattern[frames].astype(np.int64) - 1
    cell[pattern[frames] == 0] = -1
    return cell


def test_event_spacings_are_geometric():
    cfg = _config()
    blocked, q, (_, frames, *_) = _drawn(cfg)
    assert blocked == 4
    observed = np.zeros(3)
    expected = np.zeros(3)
    for q_j, block_frames in zip(q, frames):
        bins = spacing_bins(block_frames, BLOCK, blocked)
        observed += bins
        expected += bins.sum() * geometric_bins(q_j, blocked)
    g = g_statistic(observed, expected)
    p = chi2.sf(g, 2)
    print(f"frame gate, spacings: G = {g:.1f}, df = 2, p = {p:.3g}, bins = {observed.tolist()}")
    assert p > ALPHA, f"G = {g:.1f} on 2 df, p = {p:.3g}"


def test_event_cells_do_not_depend_on_clustering_or_rank():
    cfg = _config()
    _, _, (_, frames, clustered, _, _, cl_block, cl_cell) = _drawn(cfg)
    records = simulate_blocks(_blocks(cfg), cfg.source, cfg.detector, cfg.layout)
    tables = np.zeros((4, 18, 2 * DECILES))
    doubles = 0
    for j, (block_frames, mask, (_, _, record)) in enumerate(zip(frames, clustered, records)):
        tags, ledger = record()
        cell = observed_cells(cfg, tags, ledger, block_frames)
        # the drawn cell of each clustered event, before dead time
        state = _CELL_STATE[cl_cell[cl_block == j]]
        clicks = _EVENT_CLICK0[state] + 2 * _EVENT_CLICK1[state] - 1
        drawn = _CELL_CLASS[cl_cell[cl_block == j]] * 6 + _EVENT_BETA[state] * 3 + clicks
        # dead time leaves every unclustered event whole; a clustered event
        # it keeps shows its drawn cell, and one it drops shows no tag
        assert np.all(cell[~mask] >= 0)
        seen = cell[mask] >= 0
        assert np.all((cell[mask] == drawn) | ~seen)
        cell[mask] = drawn
        doubles += np.count_nonzero(clicks == 2)
        rank = np.arange(len(block_frames)) * DECILES // len(block_frames)
        column = mask * DECILES + rank
        tables[j % 4] += np.bincount(
            cell * 2 * DECILES + column, minlength=18 * 2 * DECILES
        ).reshape(18, 2 * DECILES)
    assert doubles > 100
    g, df = map(sum, zip(*(independence(t) for t in tables)))
    p = chi2.sf(g, df)
    print(f"frame gate, cells: G = {g:.1f}, df = {df}, p = {p:.3g}")
    assert p > ALPHA, f"G = {g:.1f} on {df} df, p = {p:.3g}"


def test_independence_rejects_cells_sorted_by_rank():
    # one block's unclustered cells in frame order sorted: every rare cell at one end
    cfg = _config()
    _, _, (_, frames, clustered, *_) = _drawn(cfg)
    (_, _, record), *_ = simulate_blocks(_blocks(cfg)[:1], cfg.source, cfg.detector, cfg.layout)
    tags, ledger = record()
    cell = observed_cells(cfg, tags, ledger, frames[0])[~clustered[0]]
    cell.sort()
    rank = np.arange(len(cell)) * DECILES // len(cell)
    table = np.bincount(cell * DECILES + rank, minlength=18 * DECILES).reshape(18, DECILES)
    g, df = independence(table)
    assert chi2.sf(g, df) < ALPHA
