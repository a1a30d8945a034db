from __future__ import annotations

import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd import detection
from timebin_qkd.detection import (
    _CELL_STATE,
    _EVENT_BETA,
    _EVENT_STATES,
    BASIS_GROUP_OFFSET_PS,
    INTERFEROMETER_DELAY_PS,
    LEDGER_CHUNK_ROWS,
    LEDGER_HEADER,
    TAG_HEADER,
    WINDOW_CENTERS_PS,
    Block,
    DetectorModel,
    PulseLedger,
    SessionCounts,
    TimeTags,
    WindowLayout,
    _decode_written_ledger,
    _draw_events,
    _event_probabilities,
    _event_tables,
    _pathway_outcomes,
    _prune_dead_time_clusters,
    _read_ledger_rows,
    accumulate,
    dark_prob_per_window,
    outcome_probabilities,
    read_pulse_ledger,
    read_time_tags,
    simulate_block,
    simulate_blocks,
    write_pulse_ledger,
    write_time_tags,
)
from timebin_qkd.errors import ConfigError, InvalidInputError
from timebin_qkd.experiment import ExperimentConfig
from timebin_qkd.qubit import BB84_SETTINGS, Basis, PreparationSetting, mub_states, overlap_probability
from timebin_qkd.source import IntensityClass, LossBudget, SourceConfig, transmittance
from timebin_qkd.switch import SwitchModel, apply_switch_both_bins, with_delay

from reference import (
    accumulate_loop,
    event_probabilities_loop,
    prune_dead_time_loop,
    read_pulse_ledger_rows,
    read_time_tags_rows,
    write_pulse_ledger_rows,
    write_time_tags_rows,
)
from sinks import tagged_session

PERFECT_SWITCH = SwitchModel()

# detector with every imperfection turned off, for clean statistics checks
IDEAL_DET = DetectorModel(
    dark_count_rate_hz=0.0,
    jitter_sigma_ps=0.0,
    dead_time_ns=0.0,
    intrinsic_error=0.0,
)


LAYOUT = WindowLayout()


def _rng(seed=0):
    return np.random.default_rng(seed)


def _tags(*rows) -> TimeTags:
    """TimeTags from (pulse_index, detector_id, timestamp_ps) rows."""
    return TimeTags(*(list(col) for col in zip(*rows))) if rows else TimeTags([], [], [])


def _select(tags: TimeTags, rows) -> TimeTags:
    return TimeTags(tags.pulse_index[rows], tags.detector_id[rows], tags.timestamp_ps[rows])


def _tagged_block(prep, n_pulses, source, budget, switch, det, rng, *, layout=LAYOUT, start_index=0):
    """(counts, tags, ledger) of one pulse train: simulate_blocks of one block, with tags."""
    ((counts, sent, record),) = simulate_blocks(
        [Block(prep, n_pulses, budget, switch, rng, start_index)], source, det, layout
    )
    return (SessionCounts(counts, sent), *record())


def _same_tags(a: TimeTags, b: TimeTags) -> bool:
    """Equal columns, timestamps as int64 whole picoseconds."""
    return (
        np.array_equal(a.pulse_index, b.pulse_index)
        and np.array_equal(a.detector_id, b.detector_id)
        and a.timestamp_ps.dtype == b.timestamp_ps.dtype == np.int64
        and np.array_equal(a.timestamp_ps, b.timestamp_ps)
    )


# ---------------------------------------------------------------- layout


def test_default_window_centers():
    # the index is pathway * 2 + bit, pathway 0 = phase, 1 = time
    phase0, phase1, time0, time1 = WINDOW_CENTERS_PS
    assert phase0 == 0.0
    assert phase1 == pytest.approx(2935.364037743738, abs=1e-9)
    assert time0 == 8000.0
    assert time1 == pytest.approx(8000.0 + 2935.364037743738, abs=1e-9)
    assert INTERFEROMETER_DELAY_PS == pytest.approx(2935.364037743738, abs=1e-9)
    assert BASIS_GROUP_OFFSET_PS == 8000.0


def test_classify_in_and_out_of_window():
    # one tag per pulse, so each lands in its own window or in none
    layout = WindowLayout()
    expected = {
        8000.0: (Basis.TIME, 0),
        8400.0: (Basis.TIME, 0),  # edge inclusive
        8401.0: None,
        -150.0: (Basis.PHASE, 0),
        5500.0: None,
        10935.0: (Basis.TIME, 1),
    }
    ledger = PulseLedger(0, np.zeros(1), np.zeros(1), np.zeros(1))
    for ts, window in expected.items():
        counts = accumulate(_tags((0, 0, ts)), layout, ledger).counts[0, 0, 0]
        if window is None:
            assert counts.sum() == 0, ts
        else:
            assert counts.sum() == counts[window] == 1, ts


@pytest.mark.parametrize(
    "center, inside",
    [(8000.0, (7600, 8400)), (INTERFEROMETER_DELAY_PS, (2536, 3335))],
    ids=["whole", "fractional"],
)
def test_window_edges_in_whole_picoseconds(center, inside):
    # a window holds the stamps within 400 ps of its center, edges
    # included; the center 2935.364... ps lies between whole picoseconds
    layout = WindowLayout()
    window = WINDOW_CENTERS_PS.index(center)
    ledger = PulseLedger(0, np.zeros(1), np.zeros(1), np.zeros(1))
    low, high = inside
    for ts, hit in ((low, 1), (high, 1), (low - 1, 0), (high + 1, 0)):
        counts = accumulate(_tags((0, 0, ts)), layout, ledger).counts[0, 0, 0]
        assert counts.sum() == counts[window // 2, window % 2] == hit, ts


def test_tags_at_the_int64_ends_land_in_no_window():
    # only the 400 ps tag is in a window; 2**53 + 1 has no float64
    ledger = PulseLedger(0, np.zeros(4), np.zeros(4), np.zeros(4))
    tags = TimeTags([0, 1, 2, 3], [0, 0, 0, 0], [2**63 - 1, -(2**63), 2**53 + 1, 400])
    counts = accumulate(tags, WindowLayout(), ledger).counts
    assert counts.sum() == counts[0, 0, 0, 0, 0] == 1


def test_overlapping_windows_rejected():
    # the closest two centers are one interferometer delay apart
    WindowLayout(width_ps=INTERFEROMETER_DELAY_PS)
    wider = math.nextafter(INTERFEROMETER_DELAY_PS, math.inf)
    for bad in (0.0, -800.0, wider, 3000.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="width_ps"):
            WindowLayout(width_ps=bad)


# ------------------------------------------------- projection probabilities


def test_probabilities_reproduce_state_overlaps():
    """With a perfect switch the receiver acts as a clean projective
    measurement: outcome probabilities equal |<b_j|psi>|^2 for every
    preparation and both bases."""
    for setting in BB84_SETTINGS:
        q = setting.state()
        sw = apply_switch_both_bins(q, PERFECT_SWITCH)
        for basis in Basis:
            p0, p1, drop = outcome_probabilities(sw, basis, IDEAL_DET)
            b0, b1 = mub_states(basis)
            assert p0 == pytest.approx(overlap_probability(q, b0), abs=1e-9)
            assert p1 == pytest.approx(overlap_probability(q, b1), abs=1e-9)
            assert drop == 0.0


def test_probabilities_sum_to_one_for_all_policies():
    rng = _rng(2718)
    for _ in range(100):
        model = SwitchModel(
            theta=float(rng.uniform(0.1, math.pi / 2 - 0.1)),
            delta_phi_peak=float(rng.uniform(0.0, math.pi)),
            pump_delay_ps=float(rng.uniform(-6.0, 10.0)),
        )
        setting = BB84_SETTINGS[rng.integers(0, 4)]
        sw = apply_switch_both_bins(setting.state(), model)
        for policy in ("random", "discard", "by_polarization"):
            det = replace(IDEAL_DET, stray_time_policy=policy)
            for basis in Basis:
                p0, p1, drop = outcome_probabilities(sw, basis, det)
                assert p0 >= 0.0 and p1 >= 0.0 and drop >= 0.0
                assert p0 + p1 + drop == pytest.approx(1.0, abs=1e-12)


def test_unswitched_stray_policies():
    # pump off: an early-bin photon never reaches the V pathway
    off = SwitchModel(delta_phi_peak=0.0)
    sw = apply_switch_both_bins(BB84_SETTINGS[0].state(), off)  # prepared t0

    p0, p1, drop = outcome_probabilities(sw, Basis.TIME, IDEAL_DET)
    assert (p0, p1, drop) == (0.5, 0.5, 0.0)  # no usable bit, random

    det = replace(IDEAL_DET, stray_time_policy="discard")
    p0, p1, drop = outcome_probabilities(sw, Basis.TIME, det)
    assert (p0, p1) == (0.0, 0.0)
    assert drop == pytest.approx(1.0, abs=1e-12)

    det = replace(IDEAL_DET, stray_time_policy="by_polarization")
    p0, p1, drop = outcome_probabilities(sw, Basis.TIME, det)
    # H-polarized light exits in the late slot, so the bit reads wrong
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p0 == 0.0 and drop == 0.0


def test_recombination_phase_flips_phase_basis():
    setting = BB84_SETTINGS[2]  # phase, bit 0
    sw = apply_switch_both_bins(setting.state(), PERFECT_SWITCH)
    det = replace(IDEAL_DET, recombination_phase=math.pi)
    p0, p1, _ = outcome_probabilities(sw, Basis.PHASE, det)
    assert p1 == pytest.approx(1.0, abs=1e-9)
    t0, t1, _ = outcome_probabilities(sw, Basis.TIME, det)
    ref0, ref1, _ = outcome_probabilities(sw, Basis.TIME, IDEAL_DET)
    assert (t0, t1) == pytest.approx((ref0, ref1), abs=1e-12)


def test_time_tags_validation():
    assert len(_tags((0, 0, 0.0), (3, 1, -2))) == 2
    assert len(_tags()) == 0
    for bad in ((-1, 0, 0.0), (0, 2, 0.0), (0, -1, 0.0), (0, 0, math.inf), (0, 0, -math.inf),
                (0, 0, math.nan), (0, 256, 0.0), (0, 257, 0.0), (0, -255, 0.0),
                (0, 0, 0.5), (0, 0, -2.5), (0, 0, 1e-300),
                (1.7, 0, 0.0), (0.5, 1, 0.0), (0, 0.9, 0.0), (math.nan, 0, 0.0), (0, math.inf, 0.0)):
        with pytest.raises(InvalidInputError):
            _tags((1, 0, 5.0), bad)
    with pytest.raises(InvalidInputError, match="equal length"):
        TimeTags([0, 1], [0, 1], [0.0])
    with pytest.raises(InvalidInputError, match="equal length"):
        TimeTags([0], [0, 1], [0.0])


def test_time_tags_hold_whole_picoseconds_as_int64():
    made = np.array([-(2**63), -7, 0, 2**53 + 1, 2**63 - 1], dtype=np.int64)
    for given in (made, made.tolist()):
        tags = TimeTags(np.arange(5), np.zeros(5), given)
        assert tags.timestamp_ps.dtype == np.int64
        assert tags.timestamp_ps.tolist() == made.tolist()
    # integral floats and unsigned integers that fit are taken as they are
    for given, want in (
        ([-3.0, 0.0, -0.0, 1e3, 2.0**62], [-3, 0, 0, 1000, 2**62]),
        (np.array([0, 2**63 - 1], dtype=np.uint64), [0, 2**63 - 1]),
        (np.array([5, -2], dtype=np.int8), [5, -2]),
    ):
        got = TimeTags(np.arange(len(want)), np.zeros(len(want)), given).timestamp_ps
        assert got.dtype == np.int64 and got.tolist() == want, given
    # a fraction is refused, not truncated; so is a value beyond int64
    for bad in (
        [1.7], [-0.5], [math.nan], [math.inf], [-math.inf], [2.0**63], [-(2.0**64)],
        np.array([2**63], dtype=np.uint64), [2**64], np.array([0.25], dtype=np.float32),
    ):
        with pytest.raises(InvalidInputError, match="whole picoseconds"):
            TimeTags([0], [0], bad)


# ---------------------------------------------------------- session counts


def test_counts_merge_and_roundtrip():
    a = SessionCounts.zeros()
    a.counts[0, 1, 0, 1, 0] = 3
    a.pulses_sent[0, 1, 0] = 10
    b = SessionCounts.zeros()
    b.counts[0, 1, 0, 1, 0] = 2
    b.counts[2, 0, 1, 0, 1] = 1
    b.pulses_sent[0, 1, 0] = 5
    b.pulses_sent[2, 0, 1] = 4
    merged = a + b
    assert merged.counts[0, 1, 0, 1, 0] == 5
    assert merged.pulses_sent[0, 1, 0] == 15
    assert merged == b + a
    assert SessionCounts.from_dict(merged.to_dict()) == merged


def test_counts_validation():
    bad = SessionCounts.zeros()
    bad.counts[0, 0, 0, 0, 0] = 5  # five events out of zero pulses
    with pytest.raises(InvalidInputError):
        SessionCounts(bad.counts, bad.pulses_sent)
    with pytest.raises(InvalidInputError):
        SessionCounts(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)))


def test_counts_reductions_on_known_tensor():
    c = SessionCounts.zeros()
    c.pulses_sent[0] = 100
    # prepared (phase,0): 30 right, 2 wrong in phase; 10 in time pathway
    c.counts[0, 0, 0, 0, 0] = 30
    c.counts[0, 0, 0, 0, 1] = 2
    c.counts[0, 0, 0, 1, 0] = 6
    c.counts[0, 0, 0, 1, 1] = 4
    # prepared (time,1): 20 right, 1 wrong in time
    c.counts[0, 1, 1, 1, 1] = 20
    c.counts[0, 1, 1, 1, 0] = 1
    sig = IntensityClass.SIGNAL
    assert c.clicks(sig) == 63
    assert c.pulses(sig) == 400
    assert c.matched_clicks(sig) == 53
    assert c.matched_errors(sig) == 3
    assert c.gain(sig) == pytest.approx(63 / 400)


# ----------------------------------------------------------- block engine


def _signal_only(mu=0.8):
    return SourceConfig(mu=mu, class_probabilities=(1.0, 0.0, 0.0))


def test_block_gain_matches_poisson_threshold_formula():
    source = _signal_only()
    budget = LossBudget()
    det = IDEAL_DET
    n = 400_000
    counts = simulate_block(
        BB84_SETTINGS[0], n, source, budget, PERFECT_SWITCH, det, LAYOUT, _rng(11)
    )
    eta = transmittance(budget.total_db)
    expected = 1.0 - math.exp(-source.mu * eta)
    got = counts.gain(IntensityClass.SIGNAL)
    assert abs(got - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_block_gain_follows_the_budget_detector_term():
    source = _signal_only()
    n = 400_000
    gains = []
    for detector_db in (0.0, 2.2, 10.0):
        budget = LossBudget(detector_db=detector_db)
        counts = simulate_block(
            BB84_SETTINGS[0], n, source, budget, PERFECT_SWITCH, IDEAL_DET, LAYOUT, _rng(1)
        )
        expected = -math.expm1(-source.mu * transmittance(budget.total_db))
        gains.append(counts.gain(IntensityClass.SIGNAL))
        assert abs(gains[-1] - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)
    assert gains[0] > gains[1] > gains[2]


def test_block_splits_pathways_evenly():
    source = _signal_only()
    det = IDEAL_DET
    counts = simulate_block(
        BB84_SETTINGS[0], 400_000, source, LossBudget(), PERFECT_SWITCH, det, LAYOUT, _rng(12)
    )
    c = counts.counts[0, 1, 0]
    in_time = c[1].sum()
    total = c.sum()
    assert abs(in_time / total - 0.5) < 4.0 * math.sqrt(0.25 / total)


def test_block_dark_rate_reproduces_vacuum_yield():
    source = SourceConfig(class_probabilities=(0.0, 0.0, 1.0))
    det = replace(IDEAL_DET, dark_count_rate_hz=1e6)
    n = 1_000_000
    counts = simulate_block(
        BB84_SETTINGS[0], n, source, LossBudget(), PERFECT_SWITCH, det, LAYOUT, _rng(13)
    )
    p = dark_prob_per_window(det, LAYOUT)
    expected = 1.0 - (1.0 - p) ** 2  # either window of the chosen pathway
    got = counts.gain(IntensityClass.VACUUM)
    assert abs(got - expected) < 4.0 * math.sqrt(expected * (1 - expected) / n)


def test_block_intrinsic_error_sets_the_error_floor():
    source = _signal_only()
    det = replace(IDEAL_DET, intrinsic_error=0.008)
    counts = simulate_block(
        BB84_SETTINGS[0], 2_000_000, source, LossBudget(), PERFECT_SWITCH, det, LAYOUT, _rng(14)
    )
    sig = IntensityClass.SIGNAL
    matched = counts.matched_clicks(sig)
    e = counts.matched_errors(sig) / matched
    assert abs(e - 0.008) < 4.0 * math.sqrt(0.008 * 0.992 / matched)


def test_double_click_policy_changes_counted_events():
    source = SourceConfig(class_probabilities=(0.0, 0.0, 1.0))
    base = replace(IDEAL_DET, dark_count_rate_hz=1e7)
    n = 1_000_000
    kept = simulate_block(
        BB84_SETTINGS[0], n, source, LossBudget(), PERFECT_SWITCH, base, LAYOUT, _rng(15)
    )
    dropped = simulate_block(
        BB84_SETTINGS[0],
        n,
        source,
        LossBudget(),
        PERFECT_SWITCH,
        replace(base, double_click_policy="discard"),
        LAYOUT,
        _rng(15),
    )
    p = dark_prob_per_window(base, LAYOUT)
    diff = kept.clicks(IntensityClass.VACUUM) - dropped.clicks(IntensityClass.VACUUM)
    expected_doubles = n * p * p
    assert diff > 0
    assert abs(diff - expected_doubles) < 5.0 * math.sqrt(expected_doubles)


def test_dead_time_enforces_spacing_per_detector():
    # overdriven link: q_surv = 1 and mu = 5 clicks nearly every frame,
    # so the 50 ns dead window (4 frames) dominates the record
    source = _signal_only(mu=5.0)
    budget = LossBudget(channel_db=0.0, coupling_db=0.0, detector_db=0.0, receiver_optics_db=0.0)
    det = replace(IDEAL_DET, dead_time_ns=50.0)
    out, tags, _ = _tagged_block(
        BB84_SETTINGS[0],
        50_000,
        source,
        budget,
        PERFECT_SWITCH,
        det,
        _rng(16),
    )
    assert len(tags) > 5000
    for det_id in (0, 1):
        frames = tags.pulse_index[tags.detector_id == det_id]
        gaps = np.diff(np.unique(frames))
        assert gaps.min() > 4, f"detector {det_id} violates dead time"


def test_dead_time_reduces_gain():
    source = _signal_only()
    budget = LossBudget()
    live = IDEAL_DET
    dead = replace(live, dead_time_ns=50.0)
    a = simulate_block(BB84_SETTINGS[0], 500_000, source, budget, PERFECT_SWITCH, live, LAYOUT,
                       _rng(17))
    b = simulate_block(BB84_SETTINGS[0], 500_000, source, budget, PERFECT_SWITCH, dead, LAYOUT,
                       _rng(17))
    assert b.clicks(IntensityClass.SIGNAL) < a.clicks(IntensityClass.SIGNAL)


def _dead_time_inputs(rng):
    empty = np.array([], dtype=np.int64)
    yield empty, empty.astype(np.int8), 4
    yield np.array([3, 4, 5]), np.array([0, 0, 0], dtype=np.int8), 0
    # long same-detector chains: every event within `blocked` of the last
    for step, blocked in ((1, 4), (2, 4), (4, 4), (3, 10), (1, 1)):
        frames = np.arange(0, 400, step)
        yield frames, np.zeros(len(frames), dtype=np.int8), blocked
        yield frames, (frames // 40 % 2).astype(np.int8), blocked
    # dense: every frame an event, on one or both detectors, with a dead
    # time shorter than, equal to and longer than the train
    for n in (1, 2, 3, 50, 1000):
        frames = np.arange(n)
        for blocked in (1, n - 1, n, 2 * n):
            yield frames, np.zeros(n, dtype=np.int8), blocked
            yield frames, (frames % 2).astype(np.int8), blocked
            yield frames, rng.integers(0, 2, n).astype(np.int8), blocked
    for _ in range(300):
        span = int(rng.integers(1, 500))
        k = int(rng.integers(0, span + 1))
        frames = np.sort(rng.choice(span, k, replace=False))
        yield frames, rng.integers(0, 2, k).astype(np.int8), int(rng.integers(0, 9))
    # one detector only, either one, and a dead time as long as the train
    for d in (0, 1):
        frames = np.sort(rng.choice(300, 120, replace=False))
        for blocked in (3, 299, 300, 1000):
            yield frames, np.full(120, d, dtype=np.int8), blocked


def test_cluster_dead_time_pass_matches_greedy_reference():
    cases = list(_dead_time_inputs(_rng(31)))
    assert len(cases) >= 300
    for frames, detector, blocked in cases:
        assert np.array_equal(
            _prune_dead_time_clusters(frames, detector, blocked),
            prune_dead_time_loop(frames.tolist(), detector.tolist(), blocked),
        ), (frames.tolist(), detector.tolist(), blocked)


def test_dead_time_over_clustered_events_matches_the_pass_over_all_events():
    # dense events (p_dark 0.08 per window), with B = 0, 1, 4 and B >= n;
    # unclustered events get any detector, which must not matter
    source = SourceConfig()
    det = DetectorModel(dark_count_rate_hz=1e8)
    rng = _rng(37)
    clustered_seen = unclustered_seen = 0
    for n in (1, 2, 7, 60, 400, 3000):
        for blocked in (0, 1, 4, n, 3 * n):
            blocks = [
                Block(BB84_SETTINGS[k % 4], n, LossBudget(channel_db=(0.0, 10.0)[k % 2]),
                      SwitchModel(), np.random.default_rng([37, n, blocked, k]))
                for k in range(4)
            ]
            tables = _event_tables(blocks, source, det, LAYOUT)
            _, frames, clustered, _, cl_frames, cl_block, cl_cell = _draw_events(
                blocks, source, tables, blocked, n + blocked + 1
            )
            beta = _EVENT_BETA[_CELL_STATE[cl_cell]]
            keep = _prune_dead_time_clusters(cl_frames, beta, blocked)
            for j, (block_frames, mask) in enumerate(zip(frames, clustered)):
                detector = rng.integers(0, 2, len(block_frames))
                detector[mask] = beta[cl_block == j]
                kept = prune_dead_time_loop(block_frames.tolist(), detector.tolist(), blocked)
                assert kept[~mask].all(), (n, blocked)
                assert np.array_equal(keep[cl_block == j], kept[mask]), (n, blocked)
                clustered_seen += mask.sum()
                unclustered_seen += (~mask).sum()
    assert clustered_seen > 1000 and unclustered_seen > 1000


def _event_table_inputs(rng):
    # dark rates 0 and 1e8 Hz give p_dark 0 and 0.08 per window
    for k in range(64):
        means = [rng.uniform(0.0, 5.0), rng.uniform(0.0, 1.0), 0.0 if k % 3 else rng.uniform(0.0, 0.1)]
        q_surv = (0.0, 1.0, rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-6.0, 0.0))[k % 4]
        outcomes = [tuple(rng.dirichlet(np.ones(3)) * rng.uniform(0.5, 1.0)) for _ in range(2)]
        if k % 5 == 0:
            outcomes[1] = (1.0, 0.0, 0.0)
        det = DetectorModel(
            dark_count_rate_hz=(0.0, 100.0, 1e8, rng.uniform(0.0, 1e6))[k % 4 if k % 7 else 0],
            intrinsic_error=(0.0, 0.5, 0.008, rng.uniform(0.0, 0.5))[(k // 4) % 4],
        )
        yield means, q_surv, outcomes, det


def _switched_table_inputs(rng):
    """(blocks, detector) batches over every setting, the scan's 65 pump
    delays, drifted theta and delta_phi_peak, every stray policy and a
    non-zero recombination phase."""
    switches = [with_delay(SwitchModel(), float(t)) for t in np.arange(-4.0, 12.0 + 1e-9, 0.25)]
    for _ in range(40):
        switches.append(replace(
            SwitchModel(),
            theta=float(np.clip(math.pi / 4 + rng.normal(0.0, 0.05), 0.0, math.pi / 2)),
            delta_phi_peak=math.pi * (1.0 + rng.normal(0.0, 0.03)),
            pump_delay_ps=rng.uniform(-6.0, 14.0),
        ))
    for k in range(24):
        det = DetectorModel(
            stray_time_policy=("random", "discard", "by_polarization")[k % 3],
            recombination_phase=(0.0, 0.3, rng.uniform(-math.pi, math.pi))[(k // 3) % 3],
            dark_count_rate_hz=(100.0, 1e8)[k % 2],
            intrinsic_error=(0.008, 0.0, 0.5, rng.uniform(0.0, 0.5))[(k // 6) % 4],
        )
        picks = rng.choice(len(switches), 16)
        settings = rng.choice(len(BB84_SETTINGS), 16)
        blocks = [
            Block(BB84_SETTINGS[s], 1000, LossBudget(channel_db=rng.uniform(0.0, 30.0)),
                  switches[w], None)
            for s, w in zip(settings, picks)
        ]
        yield blocks, det
    # every setting at every delay, one batch per setting
    for setting in BB84_SETTINGS:
        yield [Block(setting, 1000, LossBudget(detector_db=0.0), w, None) for w in switches[:65]], IDEAL_DET


def _random_switched_batches(rng, n_batches):
    """Batches of 16 blocks with any wave-plate angle and switch, so that
    every amplitude is a generic float."""
    for k in range(n_batches):
        det = DetectorModel(
            stray_time_policy=("random", "discard", "by_polarization")[k % 3],
            recombination_phase=rng.uniform(-math.pi, math.pi),
        )
        blocks = [
            Block(
                PreparationSetting(rng.uniform(-90.0, 90.0), Basis(k % 2), int(rng.integers(2))),
                1000,
                LossBudget(),
                SwitchModel(
                    theta=rng.uniform(0.0, math.pi / 2), delta_phi_peak=rng.uniform(0.0, 2 * math.pi),
                    pump_delay_ps=rng.uniform(-8.0, 16.0),
                ),
                None,
            )
            for _ in range(16)
        ]
        yield blocks, det


def test_event_table_matches_the_per_state_reference_bit_for_bit():
    cases = list(_event_table_inputs(_rng(41)))
    assert len(cases) >= 50
    assert {dark_prob_per_window(c[3], LAYOUT) for c in cases} >= {0.0, 0.08}
    assert {c[3].intrinsic_error for c in cases} >= {0.0, 0.5}
    for k, (means, q_surv, outcomes, det) in enumerate(cases):
        (table,) = _event_probabilities(means, [q_surv], [outcomes], det, LAYOUT)
        assert table.shape == (3, 23)
        for c, mean in enumerate(means):
            assert np.array_equal(table[c], event_probabilities_loop(mean, q_surv, outcomes, det, LAYOUT)), (
                mean, q_surv, outcomes, det,
            )
        # batched: the survivals and outcomes of 16 cases, this one eighth,
        # under this case's means and detector
        batch = [cases[(k + d) % len(cases)][1:3] for d in range(-7, 9)]
        tables = _event_probabilities(means, *zip(*batch), det, LAYOUT)
        assert tables.shape == (16, 3, 23)
        for (q, pathways), table in zip(batch, tables):
            for c, mean in enumerate(means):
                assert np.array_equal(table[c], event_probabilities_loop(mean, q, pathways, det, LAYOUT)), (
                    mean, q, pathways, det,
                )

    # the whole chain: (setting, switch, detector) -> table, against
    # apply_switch_both_bins -> outcome_probabilities -> the per-state loop
    source = SourceConfig()
    means = [source.mean_for(c) for c in range(3)]
    cases = list(_switched_table_inputs(_rng(43)))
    assert {d.stray_time_policy for _, d in cases} == {"random", "discard", "by_polarization"}
    assert {b.setting for blocks, _ in cases for b in blocks} == set(BB84_SETTINGS)
    for blocks, det in cases:
        tables = _event_tables(blocks, source, det, LAYOUT)
        assert tables.shape == (len(blocks), 3, 23)
        for block, table in zip(blocks, tables):
            sw = apply_switch_both_bins(block.setting.state(), block.switch)
            outcomes = [outcome_probabilities(sw, b, det) for b in (Basis.PHASE, Basis.TIME)]
            q_surv = transmittance(block.budget.path_db) * transmittance(block.budget.detector_db)
            for c, mean in enumerate(means):
                expected = event_probabilities_loop(mean, q_surv, outcomes, det, LAYOUT)
                assert np.array_equal(table[c], expected), (block, det)
    # generic amplitudes round differently in about one operation in a
    # thousand if an operation is changed, so many are compared
    for blocks, det in _random_switched_batches(_rng(47), 512):
        for block, pathways in zip(blocks, _pathway_outcomes(blocks, det)):
            sw = apply_switch_both_bins(block.setting.state(), block.switch)
            assert list(pathways) == [outcome_probabilities(sw, b, det) for b in (Basis.PHASE, Basis.TIME)], (
                block, det,
            )


def test_block_rejects_negative_pulse_count():
    def block(n):
        return simulate_block(
            BB84_SETTINGS[0], n, SourceConfig(), LossBudget(), PERFECT_SWITCH, IDEAL_DET, LAYOUT,
            _rng(0),
        )

    # a fraction or a bool used to be truncated, and a string raised a bare TypeError
    for n in (-1, 2.9, True, np.float64(1000.5), "10"):
        with pytest.raises(InvalidInputError, match="n_pulses"):
            block(n)
    assert block(0) == SessionCounts.zeros()
    assert block(np.int64(1_000)) == block(1_000)


def _batches(rng):
    """Random batches of blocks, with the detector of each batch and whether its records are drawn.

    Each block is (setting, pulses, budget, switch, generator key,
    start_index); one batch in four has a single block.
    """
    dead_times = (0.0, 50.0, 3.0, 1e5)  # 0, 50, 3 and 100,000 frames at 1 GHz
    for k in range(48):
        det = DetectorModel(
            dark_count_rate_hz=(100.0, 1e7)[k % 2],
            double_click_policy=("random", "discard")[(k // 2) % 2],
            dead_time_ns=dead_times[(k // 4) % 4],
            jitter_sigma_ps=150.0,
        )
        n_blocks = 1 if k % 4 == 3 else int(rng.integers(2, 9))
        blocks = []
        for j in range(n_blocks):
            pulses = int((1, 2, 17, 999, rng.integers(1, 30_000))[rng.integers(0, 5)])
            budget = LossBudget(channel_db=float(rng.uniform(0.0, 20.0)))
            switch = with_delay(PERFECT_SWITCH, float(rng.uniform(-4.0, 12.0)))
            setting = BB84_SETTINGS[rng.integers(0, 4)]
            blocks.append((setting, pulses, budget, switch, (k, j), int(rng.integers(0, 10**9))))
        yield det, blocks, k % 3 != 0


def test_batched_blocks_equal_lone_blocks():
    # a strong source gives doubles beside the 1e7 Hz darks
    source = SourceConfig(mu=2.0, nu=0.3)
    layout = WindowLayout()
    cases = list(_batches(_rng(43)))
    sizes = [b[1] for _, blocks, _ in cases for b in blocks]
    assert {1, 2, 17} <= set(sizes) and max(sizes) > 10_000
    n_events = 0
    for det, blocks, with_record in cases:
        batch = simulate_blocks(
            [Block(s, n, b, sw, _rng(key), start) for s, n, b, sw, key, start in blocks],
            source, det, layout,
        )
        for (setting, n, budget, switch, key, start), (counts, sent, record) in zip(
            blocks, batch, strict=True
        ):
            if with_record:
                lone = _tagged_block(
                    setting, n, source, budget, switch, det, _rng(key),
                    layout=layout, start_index=start,
                )
            else:
                lone = (simulate_block(setting, n, source, budget, switch, det, layout, _rng(key)),)
            assert lone[0] == SessionCounts(counts, sent), (det, key)
            n_events += int(counts.sum())
            if with_record:
                tags, ledger = record()
                for name in ("pulse_index", "detector_id", "timestamp_ps"):
                    assert np.array_equal(getattr(tags, name), getattr(lone[1], name)), (det, key)
                assert ledger.start_index == lone[2].start_index == start
                for name in ("class_idx", "alpha", "bit"):
                    assert np.array_equal(getattr(ledger, name), getattr(lone[2], name)), (det, key)
    assert n_events > 10_000


# ----------------------------------------------- tags, ledger, accumulate


def test_accumulate_reproduces_block_counts_without_jitter():
    source = SourceConfig()
    budget = LossBudget()
    det = IDEAL_DET
    layout = WindowLayout()
    counts, tags, ledger = _tagged_block(
        BB84_SETTINGS[1],
        200_000,
        source,
        budget,
        PERFECT_SWITCH,
        det,
        _rng(18),
        start_index=1000,
    )
    rebuilt = accumulate(tags, layout, ledger)
    assert rebuilt == counts


def test_accumulate_jitter_losses_match_window_acceptance():
    source = _signal_only()
    det = replace(IDEAL_DET, jitter_sigma_ps=150.0)
    layout = WindowLayout()
    counts, tags, ledger = _tagged_block(
        BB84_SETTINGS[0], 400_000, source, LossBudget(), PERFECT_SWITCH, det,
        _rng(19),
    )
    # each tag's offset from the nearest slot center of its pathway; the
    # slots are 2.9 ns apart, so no 150 ps jitter draw crosses halfway
    ts = tags.timestamp_ps
    centers = np.reshape(WINDOW_CENTERS_PS, (2, 2))[tags.detector_id]
    offsets = ts - centers[np.arange(len(ts)), np.abs(ts[:, None] - centers).argmin(axis=1)]
    # sample sd of n normal draws has standard error ~ sigma / sqrt(2n)
    assert abs(np.std(offsets) - 150.0) < 4.0 * 150.0 / math.sqrt(2 * len(offsets))
    rebuilt = accumulate(tags, layout, ledger)
    total = counts.clicks(IntensityClass.SIGNAL)
    kept = rebuilt.clicks(IntensityClass.SIGNAL)
    p_in = 0.9923392388648206  # 0.8 ns window at 150 ps rms jitter
    assert kept < total
    assert abs(kept / total - p_in) < 4.0 * math.sqrt(p_in * (1 - p_in) / total)


def test_accumulate_is_associative_over_ledger_pieces():
    source = SourceConfig()
    det = IDEAL_DET
    layout = WindowLayout()
    _, tags, ledger = _tagged_block(
        BB84_SETTINGS[2], 100_000, source, LossBudget(), PERFECT_SWITCH, det,
        _rng(20),
    )
    cut = 40_000
    first = PulseLedger(0, ledger.class_idx[:cut], ledger.alpha[:cut], ledger.bit[:cut])
    second = PulseLedger(
        cut, ledger.class_idx[cut:], ledger.alpha[cut:], ledger.bit[cut:]
    )
    tags_a = _select(tags, tags.pulse_index < cut)
    tags_b = _select(tags, tags.pulse_index >= cut)
    whole = accumulate(tags, layout, ledger)
    assert accumulate(tags_a, layout, first) + accumulate(tags_b, layout, second) == whole


def test_accumulate_discards_multi_window_pulses():
    layout = WindowLayout()
    ledger = PulseLedger(0, np.zeros(3), np.ones(3), np.zeros(3))
    tags = _tags(
        (0, 1, 8000.0),
        (0, 1, 10935.0),  # second window, same pulse: dropped
        (1, 1, 8000.0),
        (2, 1, 5000.0),  # outside every window: ignored
    )
    out = accumulate(tags, layout, ledger)
    assert out.counts.sum() == 1
    assert out.counts[0, 1, 0, 1, 0] == 1
    assert out.pulses_sent[0, 1, 0] == 3


def test_accumulate_rejects_out_of_range_tags():
    layout = WindowLayout()
    ledger = PulseLedger(10, np.zeros(5), np.zeros(5), np.zeros(5))
    with pytest.raises(InvalidInputError):
        accumulate(_tags((3, 0, 0.0)), layout, ledger)


def _assert_record_reads_back(tmp_path, tags, ledger, pulses_sent):
    """Both files of a record read back equal, and the ledger's totals are pulses_sent."""
    write_time_tags(tmp_path / "run.tags", tags)
    write_pulse_ledger(tmp_path / "run.ledger", ledger)
    assert _same_tags(read_time_tags(tmp_path / "run.tags"), tags)
    back = read_pulse_ledger(tmp_path / "run.ledger")
    assert back.start_index == ledger.start_index
    for name in ("class_idx", "alpha", "bit"):
        assert np.array_equal(getattr(back, name), getattr(ledger, name))
    flat = back.class_idx.astype(np.int64) * 4 + back.alpha * 2 + back.bit
    assert np.array_equal(np.bincount(flat, minlength=12).reshape(3, 2, 2), pulses_sent)
    assert np.array_equal(accumulate(tags, WindowLayout(), back).pulses_sent, pulses_sent)


def _tagged_batch(blocks, source, det):
    """(pulses_sent, tags, ledger) of each block of one simulate_blocks batch with tags."""
    return [
        (sent, *record()) for _, sent, record in simulate_blocks(blocks, source, det, LAYOUT)
    ]


def test_tag_and_ledger_files_round_trip(tmp_path):
    det = replace(IDEAL_DET, jitter_sigma_ps=150.0)
    counts, tags, ledger = _tagged_block(
        BB84_SETTINGS[0], 20_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        det, _rng(21), start_index=500,
    )
    _assert_record_reads_back(tmp_path, tags, ledger, counts.pulses_sent)


def test_session_without_silent_frames_records_every_pulse(tmp_path):
    # a dark probability of 1.0 per window makes every frame an event
    det = replace(DetectorModel(), dark_count_rate_hz=1.25e9, dead_time_ns=0.0)
    assert dark_prob_per_window(det, LAYOUT) == 1.0
    res, tags, ledger = tagged_session(ExperimentConfig(detector=det, seed=3), pulses=2000)
    assert len(ledger) == 4 * 2000
    assert np.array_equal(np.unique(tags.pulse_index), np.arange(4 * 2000))
    _assert_record_reads_back(tmp_path, tags, ledger, res.counts.pulses_sent)


def test_one_pulse_blocks_record_their_pulse(tmp_path):
    det = replace(IDEAL_DET, dark_count_rate_hz=2.5e8, jitter_sigma_ps=150.0)
    blocks = [
        Block(BB84_SETTINGS[j % 4], 1, LossBudget(detector_db=0.0), PERFECT_SWITCH, _rng([44, j]), 7 + j)
        for j in range(64)
    ]
    records = _tagged_batch(blocks, SourceConfig(mu=0.5, nu=0.1), det)
    tagged = sum(len(tags) > 0 for _, tags, _ in records)
    assert 0 < tagged < len(records)  # both silent and event frames occur
    for sent, tags, ledger in records:
        assert len(ledger) == 1
        _assert_record_reads_back(tmp_path, tags, ledger, sent)


@pytest.mark.parametrize(
    "probabilities", [(1.0, 0.0, 0.0), (0.15, 0.6, 0.25)], ids=["one_class", "decoy_largest"]
)
def test_silent_frames_take_the_left_over_classes(tmp_path, probabilities):
    source = SourceConfig(class_probabilities=probabilities)
    det = replace(DetectorModel(), dark_count_rate_hz=1e6)
    blocks = [
        Block(s, 30_000, LossBudget(), PERFECT_SWITCH, _rng([45, j]))
        for j, s in enumerate(BB84_SETTINGS)
    ]
    for sent, tags, ledger in _tagged_batch(blocks, source, det):
        per_class = np.bincount(ledger.class_idx, minlength=3)
        assert len(tags) > 0 and per_class.argmax() == np.argmax(probabilities)
        assert np.array_equal(per_class > 0, np.array(probabilities) > 0)
        _assert_record_reads_back(tmp_path, tags, ledger, sent)


def test_tags_of_one_pulse_are_swapped_into_time_order(monkeypatch):
    # Strong pulses and darks give doubles.  The far-apart run moves window
    # k by k * 10 us, a whole number of picoseconds, so in either run a tag
    # is its window's center plus the same jitter draw, rounded.  There each
    # double's rows are window 0, then window 1; that tells the draws apart
    # and predicts the real centers' timestamps, where a window-1 tag can
    # come first.
    source = SourceConfig(mu=2.0, nu=0.3)
    det = replace(IDEAL_DET, dark_count_rate_hz=1e8, jitter_sigma_ps=2048.0)
    far = tuple(c + k * 1e7 for k, c in enumerate(WINDOW_CENTERS_PS))
    runs = []
    for centers in (far, WINDOW_CENTERS_PS):
        monkeypatch.setattr(detection, "WINDOW_CENTERS_PS", centers)
        runs.append(_tagged_block(
            BB84_SETTINGS[1], 20_000, source, LossBudget(detector_db=0.0), PERFECT_SWITCH, det, _rng(47)
        )[1])
    apart, close = runs
    assert np.array_equal(apart.pulse_index, close.pulse_index)
    assert np.array_equal(apart.detector_id, close.detector_id)
    assert np.array_equal(np.lexsort((close.timestamp_ps, close.pulse_index)), np.arange(len(close)))
    first = np.flatnonzero(np.diff(apart.pulse_index) == 0)  # each double's first row
    rows = np.stack([first, first + 1], 1)
    assert np.all(np.diff(apart.timestamp_ps[rows], axis=1) > 5e6)  # window 0, then 1
    shift = np.array([0, -1, -2, -3], dtype=np.int64).reshape(2, 2) * 10**7
    predicted = apart.timestamp_ps[rows] + shift[apart.detector_id[first]]
    inverted = predicted[:, 1] < predicted[:, 0]
    assert len(first) > 100 and inverted.sum() > 10
    assert np.array_equal(close.timestamp_ps[rows], np.sort(predicted, axis=1))


def test_tag_file_header_is_checked(tmp_path):
    p = tmp_path / "bad.tags"
    p.write_text("wrong,header,line\n0,0,0\n")
    with pytest.raises(InvalidInputError):
        read_time_tags(p)


# Timestamps of one to nineteen digits, negative, past 32 and 53 bits, and the int64 ends.
_EDGE_TIMESTAMPS = (0, -1, 1, 9, -10, 2**31 - 1, 2**31, -(2**31) - 1, 2**53 + 1, -(2**53) - 1,
                    10**18, 2**63 - 1, -(2**63))


def test_tag_files_round_trip_edge_integers_exactly(tmp_path):
    rng = _rng(24)
    spread = np.rint(rng.normal(0.0, 1e4, 2000)).astype(np.int64)
    ts = np.concatenate([np.array(_EDGE_TIMESTAMPS), spread])
    # pulse indices past 2**31, and the last one at the int64 end
    pulse = 2**31 - 5 + np.arange(len(ts)) * 7
    pulse[-1] = 2**63 - 1
    tags = TimeTags(pulse, rng.integers(0, 2, len(ts)), ts)
    write_time_tags(tmp_path / "fast", tags)
    write_time_tags_rows(tmp_path / "ref", tags)
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "ref").read_bytes()
    assert _same_tags(read_time_tags(tmp_path / "fast"), tags)
    write_time_tags(tmp_path / "empty", _tags())
    assert (tmp_path / "empty").read_text() == TAG_HEADER + "\n"
    assert len(read_time_tags(tmp_path / "empty")) == 0


def test_tag_writer_matches_the_row_by_row_reference_on_block_tags(tmp_path):
    det = replace(IDEAL_DET, jitter_sigma_ps=150.0, dark_count_rate_hz=1e6)
    _, tags, _ = _tagged_block(
        BB84_SETTINGS[1], 50_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        det, _rng(25), start_index=999_990,
    )
    write_time_tags(tmp_path / "fast", tags)
    write_time_tags_rows(tmp_path / "ref", tags)
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "ref").read_bytes()
    assert _same_tags(read_time_tags(tmp_path / "fast"), read_time_tags_rows(tmp_path / "ref"))


def test_tag_reader_accepts_what_the_row_reader_accepts(tmp_path):
    variants = {
        "blank lines": f"{TAG_HEADER}\n\n5,0,15\n\n6,1,-0\n\n",
        "whitespace lines": f"{TAG_HEADER}\n5,0,15\n \t\n6,1,-0\n  \n",
        "padding": f"{TAG_HEADER}\n 5 ,0, 15 \n\t6,1 ,-0\n",
        "crlf": f"{TAG_HEADER}\r\n5,0,15\r\n6,1,-0\r\n",
        "no final newline": f"{TAG_HEADER}\n5,0,15\n6,1,-0",
        "signs and zeros": f"{TAG_HEADER}\n+5,0,+1500\n6,1,-007\n7,1,0\n",
        "one row": f"{TAG_HEADER}\n5,0,15\n",
    }
    for name, text in variants.items():
        path = tmp_path / "tags"
        path.write_bytes(text.encode("ascii"))
        assert _same_tags(read_time_tags(path), read_time_tags_rows(path)), name


@pytest.mark.parametrize(
    "row", ["0,0,nan", "0,1,inf", "0,0,-inf", "0,1,1.5", "0,0,1e3", "0,1,2935.364037743738", "0,0,5."]
)
def test_tag_reader_rejects_non_integer_timestamps(tmp_path, row):
    # a float tag file, as earlier versions wrote, is refused by its line
    path = tmp_path / "tags"
    path.write_text(f"{TAG_HEADER}\n1,0,5\n{row}\n")
    with pytest.raises(InvalidInputError, match=f"line 3: expected {TAG_HEADER}, got '{row}'"):
        read_time_tags(path)


def test_tag_reader_rejects_out_of_range_columns(tmp_path):
    path = tmp_path / "tags"
    for row, match in (
        ("-1,0,0", "non-negative"), ("0,2,0", "0 or 1"), ("0,0,9223372036854775808", "tag file")
    ):
        path.write_text(f"{TAG_HEADER}\n{row}\n")
        with pytest.raises(InvalidInputError, match=match):
            read_time_tags(path)


# Row counts around the writer's chunk boundary and across several chunks.
_LEDGER_LENGTHS = (
    1,
    LEDGER_CHUNK_ROWS - 1,
    LEDGER_CHUNK_ROWS,
    LEDGER_CHUNK_ROWS + 1,
    3 * LEDGER_CHUNK_ROWS + 5,
)


@pytest.mark.parametrize("start_index", [0, 9, 10, 9_995, 99_999, 999_999, 123_456_789])
def test_ledger_writer_matches_the_row_by_row_reference(tmp_path, start_index):
    # start indices sit on digit-width boundaries, so rows of one chunk
    # and of neighbouring chunks differ in index width; 9,995 crosses a
    # run of 10^4 indices inside a chunk, and 123,456,789 has more than
    # one high digit
    rng = _rng(22)
    for n in _LEDGER_LENGTHS:
        ledger = PulseLedger(
            start_index, rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
        )
        write_pulse_ledger(tmp_path / "fast", ledger)
        write_pulse_ledger_rows(tmp_path / "ref", ledger)
        written = (tmp_path / "fast").read_bytes()
        assert written == (tmp_path / "ref").read_bytes(), n
        # the reader takes its fixed-offset path for what the writer wrote
        assert _decode_written_ledger(io.BytesIO(written)) is not None, n
        back = read_pulse_ledger(tmp_path / "fast")
        assert back.start_index == start_index
        assert np.array_equal(back.class_idx, ledger.class_idx)
        assert np.array_equal(back.alpha, ledger.alpha)
        assert np.array_equal(back.bit, ledger.bit)


def test_ledger_reader_accepts_what_the_row_reader_accepts(tmp_path):
    variants = {
        "blank lines": "pulse_index,intensity_class,alpha,bit\n\n5,0,1,0\n\n6,2,0,1\n\n",
        "whitespace lines": "pulse_index,intensity_class,alpha,bit\n5,0,1,0\n \t\n6,2,0,1\n  \n",
        "padding": "pulse_index,intensity_class,alpha,bit\n 5 ,0, 1,0 \n\t6,2 ,0,1\n",
        "crlf": "pulse_index,intensity_class,alpha,bit\r\n5,0,1,0\r\n6,2,0,1\r\n",
        "no final newline": "pulse_index,intensity_class,alpha,bit\n5,0,1,0\n6,2,0,1",
    }
    for name, text in variants.items():
        path = tmp_path / "ledger"
        path.write_bytes(text.encode("ascii"))
        got, ref = read_pulse_ledger(path), read_pulse_ledger_rows(path)
        assert got.start_index == ref.start_index == 5, name
        for col in ("class_idx", "alpha", "bit"):
            assert np.array_equal(getattr(got, col), getattr(ref, col)), name


@pytest.mark.parametrize(
    "reader, header, body, match",
    [
        (read_pulse_ledger, LEDGER_HEADER, "0,1,0\n", "line 2"),
        (read_pulse_ledger, LEDGER_HEADER, "0,1,0,1\n\n1,1,0\n", "line 4"),
        (read_pulse_ledger, LEDGER_HEADER, "0,1,0,1\n1,1,0,1,1\n", "line 3"),
        (read_pulse_ledger, LEDGER_HEADER, "0,1,0,1\n1,1,x,1\n", "line 3"),
        (read_pulse_ledger, LEDGER_HEADER, "0,1,1.5,1\n", "line 2"),
        (read_pulse_ledger, LEDGER_HEADER, "", "empty pulse ledger"),
        (read_pulse_ledger, LEDGER_HEADER, "\n \n", "empty pulse ledger"),
        (read_time_tags, TAG_HEADER, "0,1\n", "line 2"),
        (read_time_tags, TAG_HEADER, "0,1,0\n1,0,2,7\n", "line 3"),
        (read_time_tags, TAG_HEADER, "0,x,0\n", "line 2"),
        (read_pulse_ledger, LEDGER_HEADER, "0,1,0,1\n1,1,\u00e9,1\n", "line 3"),
        (read_pulse_ledger, LEDGER_HEADER + "\u00e9", "0,1,0,1\n", "line 1"),
        (read_time_tags, TAG_HEADER, "0,1,0\n1,\u00e9,2\n", "line 3"),
        (read_time_tags, "\u00e9" + TAG_HEADER, "0,1,0\n", "line 1"),
    ],
    ids=[
        "ledger-too-few", "ledger-too-few-after-blank", "ledger-too-many",
        "ledger-not-integer", "ledger-float", "ledger-header-only", "ledger-blank-only",
        "tags-too-few", "tags-too-many", "tags-not-integer",
        "ledger-non-ascii-row", "ledger-non-ascii-header",
        "tags-non-ascii-row", "tags-non-ascii-header",
    ],
)
def test_malformed_rows_raise_input_errors_naming_the_row(
    tmp_path, reader, header, body, match
):
    path = tmp_path / "file"
    path.write_text(f"{header}\n{body}", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=match):
            reader(path)


def test_ledger_values_are_range_checked():
    ok = PulseLedger(0, [0, 1, 2], [0, 1, 0], [1, 0, 1])
    assert len(ok) == 3
    for cls, alpha, bit in (
        ([3], [0], [0]), ([-1], [0], [0]), ([0], [2], [0]), ([0], [0], [-1]),
        # a fraction is refused, not truncated
        ([1.5], [0.99], [0]), ([0.5], [0], [0]), ([0], [0.99], [0]), ([0], [0], [0.5]),
        ([math.nan], [0], [0]),
    ):
        with pytest.raises(InvalidInputError):
            PulseLedger(0, cls, alpha, bit)
    for start in (0.5, -1, -1.0, math.nan, math.inf, 2.0**63):
        with pytest.raises(InvalidInputError, match="start_index"):
            PulseLedger(start, [1], [0], [0])
    # integral floats are still taken
    whole = PulseLedger(3.0, [2.0], [1.0], [0.0])
    assert whole.start_index == 3 and whole.class_idx.tolist() == [2]
    # values that wrap to a valid int8 digit are rejected before narrowing
    for value in (258, 256, -254):
        wide = np.array([value], dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        for columns in ((wide, zero, zero), (zero, wide, zero), (zero, zero, wide)):
            with pytest.raises(InvalidInputError):
                PulseLedger(0, *columns)


def _ledgers_of_every_source(tmp_path) -> tuple[PulseLedger, ...]:
    """A ledger made from columns, read by either reader path, and simulated."""
    made = PulseLedger(0, [0, 1, 2], np.array([0, 1, 0], dtype=np.int64), [1.0, 0.0, 1.0])
    write_pulse_ledger(tmp_path / "written", made)
    (tmp_path / "padded").write_text(f"{LEDGER_HEADER}\n 0,0,0,1\n1,1,1,0\n")
    _, _, simulated = _tagged_block(
        BB84_SETTINGS[0], 5_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        DetectorModel(), _rng(3),
    )
    return (
        made,
        read_pulse_ledger(tmp_path / "written"),
        read_pulse_ledger(tmp_path / "padded"),
        simulated,
    )


def test_ledger_columns_are_int8(tmp_path):
    for ledger in _ledgers_of_every_source(tmp_path):
        for name in ("class_idx", "alpha", "bit"):
            assert getattr(ledger, name).dtype == np.int8, name


def test_ledger_is_one_byte_per_pulse_with_read_only_columns(tmp_path):
    for ledger in _ledgers_of_every_source(tmp_path):
        arrays = [v for v in vars(ledger).values() if isinstance(v, np.ndarray)]
        assert [a.nbytes for a in arrays] == [len(ledger)]
        for name in ("class_idx", "alpha", "bit"):
            before = getattr(ledger, name).tolist()
            # the columns are derived, so a write into one would be lost
            with pytest.raises(ValueError, match="read-only"):
                getattr(ledger, name)[0] = 1
            assert getattr(ledger, name).tolist() == before, name


def test_tag_detector_ids_are_int8(tmp_path):
    made = TimeTags([0, 1], np.array([1, 0], dtype=np.int64), [0, 15])
    write_time_tags(tmp_path / "tags", made)
    _, simulated, _ = _tagged_block(
        BB84_SETTINGS[0], 5_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        DetectorModel(), _rng(3),
    )
    assert len(simulated) > 0
    for tags in (made, read_time_tags(tmp_path / "tags"), simulated):
        assert tags.detector_id.dtype == np.int8
    assert read_time_tags(tmp_path / "tags").detector_id.tolist() == [1, 0]


def test_ledger_reader_rejects_out_of_range_values(tmp_path):
    path = tmp_path / "ledger"
    for row in ("0,7,0,1", "0,1,2,1", "0,1,0,-1"):
        path.write_text(f"{LEDGER_HEADER}\n{row}\n")
        with pytest.raises(InvalidInputError):
            read_pulse_ledger(path)
    path.write_text(f"{LEDGER_HEADER}\n4,1,0,1\n6,1,0,1\n")
    with pytest.raises(InvalidInputError, match="contiguous"):
        read_pulse_ledger(path)


def _ledger_outcome(reader, path):
    """(start_index, class_idx, alpha, bit) as lists, or InvalidInputError."""
    try:
        ledger = reader(path)
    except InvalidInputError:
        return InvalidInputError
    return ledger.start_index, ledger.class_idx.tolist(), ledger.alpha.tolist(), ledger.bit.tolist()


_MUTATION_BYTES = b"0123456789,\n\r \t+-:/.x\xc3"


@pytest.mark.parametrize("start_index", [0, 7, 95, 9_995, 99_998])
def test_ledger_reader_agrees_with_the_row_reader_on_mutated_files(tmp_path, start_index):
    # 250 single-byte substitutions, insertions and deletions of writer
    # output per start index, whose 12 rows cross an index width: the
    # reader returns what the loadtxt path returns, or raises
    # InvalidInputError where it does
    rng = _rng(start_index)
    n = 12
    ledger = PulseLedger(
        start_index, rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )
    write_pulse_ledger(tmp_path / "ledger", ledger)
    written = (tmp_path / "ledger").read_bytes()
    path = tmp_path / "mutant"
    accepted = decoded = 0
    for _ in range(250):
        pos = int(rng.integers(0, len(written)))
        k = int(rng.integers(len(_MUTATION_BYTES)))
        byte = _MUTATION_BYTES[k : k + 1]
        kind = rng.integers(3)
        if kind == 0:
            mutant = written[:pos] + byte + written[pos + 1 :]
        elif kind == 1:
            mutant = written[:pos] + byte + written[pos:]
        else:
            mutant = written[:pos] + written[pos + 1 :]
        path.write_bytes(mutant)
        got = _ledger_outcome(read_pulse_ledger, path)
        assert got == _ledger_outcome(_read_ledger_rows, path), mutant
        accepted += got is not InvalidInputError
        decoded += _decode_written_ledger(io.BytesIO(mutant)) is not None
    # both outcomes occur, and some mutants are writer output of another ledger
    assert 0 < accepted < 250 and decoded > 0


@pytest.mark.parametrize(
    "body, accepted",
    [
        (f"{2**63},0,0,0\n", False),
        (f"{2**63 - 1},0,0,0\n{2**63},1,1,1\n", False),
        (f"{2**63 - 1},2,1,1\n", True),
        ("05,0,1,0\n6,2,0,1\n", True),
        ("+5,0,1,0\n6,2,0,1\n", True),
        ("5,0,1,0\r\n6,2,0,1\r\n", True),
        ("5,0,1,0\n6,2,0,1", True),
        ("5,0,1,0\n6,2,0,1\n\n", True),
        ("5,3,1,0\n6,2,0,1\n", False),
        ("5,0,:,0\n6,2,0,1\n", False),
        ("5,0,1,0\n:,2,0,1\n", False),
    ],
    ids=[
        "first-index-beyond-int64", "last-index-beyond-int64", "index-int64-max",
        "leading-zero", "leading-plus", "crlf", "no-final-newline", "trailing-blank-line",
        "class-3", "colon-in-alpha", "colon-in-index",
    ],
)
def test_ledger_reader_edge_cases_match_the_row_reader(tmp_path, body, accepted):
    path = tmp_path / "ledger"
    path.write_text(f"{LEDGER_HEADER}\n{body}")
    got = _ledger_outcome(read_pulse_ledger, path)
    assert got == _ledger_outcome(_read_ledger_rows, path)
    assert (got is not InvalidInputError) == accepted


def _edge_case_tags(rng, layout, n_pulses, n_tags):
    """Unsorted tags over n_pulses pulses, rich in window edges and repeats."""
    centers = np.array(WINDOW_CENTERS_PS)
    half = 0.5 * layout.width_ps
    tags = []
    for _ in range(n_tags):
        pulse = int(rng.integers(0, n_pulses))
        c = centers[rng.integers(0, 4)]
        kind = rng.integers(0, 4)
        # the whole picoseconds at a window's edges: on the edge itself
        # when the center is whole
        low, high = math.ceil(c - half), math.floor(c + half)
        if kind == 0:  # the last stamp inside an edge
            ts = low if rng.random() < 0.5 else high
        elif kind == 1:  # the first stamp past an edge: outside
            ts = low - 1 if rng.random() < 0.5 else high + 1
        else:
            ts = round(c + rng.normal(0.0, half))
        tags.append((pulse, int(rng.integers(0, 2)), ts))
        if rng.random() < 0.2:  # a second tag of the same pulse, same window
            tags.append((pulse, 0, round(c)))
    return _tags(*tags)


def test_accumulate_matches_the_dict_loop_reference():
    # the widest windows touch their neighbours at a fraction of a picosecond
    widest = WindowLayout(width_ps=INTERFEROMETER_DELAY_PS)
    for seed in range(40):
        layout = widest if seed % 2 else WindowLayout()
        rng = _rng(100 + seed)
        n = int(rng.integers(1, 60))
        start = int(rng.integers(0, 1000))
        ledger = PulseLedger(
            start, rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
        )
        tags = _edge_case_tags(rng, layout, n, int(rng.integers(0, 80)))
        tags.pulse_index += start
        assert accumulate(tags, layout, ledger) == accumulate_loop(tags, layout, ledger), seed
    # a full block's tags
    layout = WindowLayout()
    det = replace(IDEAL_DET, jitter_sigma_ps=400.0, dark_count_rate_hz=1e6)
    _, tags, ledger = _tagged_block(
        BB84_SETTINGS[3], 100_000, SourceConfig(), LossBudget(), PERFECT_SWITCH, det,
        _rng(23), start_index=77,
    )
    assert accumulate(tags, layout, ledger) == accumulate_loop(tags, layout, ledger)
    assert accumulate(_tags(), layout, ledger) == accumulate_loop(_tags(), layout, ledger)


def test_detector_model_validation():
    with pytest.raises(InvalidInputError):
        DetectorModel(intrinsic_error=0.6)
    with pytest.raises(InvalidInputError):
        DetectorModel(double_click_policy="coinflip")
    with pytest.raises(InvalidInputError):
        DetectorModel(stray_time_policy="whatever")
    with pytest.raises(InvalidInputError, match="finite"):
        DetectorModel(dark_count_rate_hz=math.inf)
    with pytest.raises(InvalidInputError, match="recombination_phase"):
        DetectorModel(recombination_phase=math.nan)


def test_detector_model_refuses_time_tags_beyond_int64_picoseconds():
    with pytest.raises(InvalidInputError, match="int64 picoseconds"):
        DetectorModel(jitter_sigma_ps=2.0**56)


def test_detector_model_keeps_time_tags_where_float64_holds_whole_picoseconds():
    # a tag is a center plus a jitter draw, rounded from a float64: exact
    # only below 2**53, so the last center plus 64 sigma must stay below it
    assert max(WINDOW_CENTERS_PS) + 64 * (2**47 - 256) < 2**53
    DetectorModel(jitter_sigma_ps=2.0**47 - 256)
    # 64 sigma alone is below 2**53 here: the last center tips it over
    for sigma in (2.0**47 - 128, 2.0**47):
        with pytest.raises(InvalidInputError, match="2\\*\\*53"):
            DetectorModel(jitter_sigma_ps=sigma)


def test_dark_probability_is_the_dark_rate_over_the_layout_width():
    # 1e12 Hz over 0.8 ns is 800 dark clicks a window, 1e9 Hz over 2 ns 2
    wide = WindowLayout(width_ps=2000.0)
    for det, layout in (
        (DetectorModel(dark_count_rate_hz=1e12), LAYOUT),
        (DetectorModel(dark_count_rate_hz=1e9), wide),
    ):
        with pytest.raises(InvalidInputError, match="above 1"):
            dark_prob_per_window(det, layout)
    assert dark_prob_per_window(DetectorModel(dark_count_rate_hz=1.25e9), LAYOUT) == 1.0
    # the same float as the rate times 0.8 ns, for any rate
    for rate in (0.0, 100.0, 1e6, 1e8, 123.456, 1.25e9):
        assert dark_prob_per_window(DetectorModel(dark_count_rate_hz=rate), LAYOUT) == rate * 0.8 * 1e-9


def test_halving_the_layout_width_halves_the_dark_probability_of_the_event_tables():
    source = SourceConfig()
    det = DetectorModel(dark_count_rate_hz=1e8)
    half = replace(LAYOUT, width_ps=LAYOUT.width_ps / 2)
    p = dark_prob_per_window(det, LAYOUT)
    assert dark_prob_per_window(det, half) == p / 2
    blocks = [
        Block(setting, 1000, LossBudget(channel_db=db), SwitchModel(), None)
        for setting in BB84_SETTINGS for db in (0.0, 14.0)
    ]
    full, narrow = (_event_tables(blocks, source, det, layout) for layout in (LAYOUT, half))
    # the tables see the width only through p_dark: half the width is half the rate
    slower = replace(det, dark_count_rate_hz=det.dark_count_rate_hz / 2)
    assert np.array_equal(narrow, _event_tables(blocks, source, slower, LAYOUT))
    assert not np.array_equal(narrow, full)
    # a vacuum frame with a dark click in both windows of a pathway: 0.5 * p * p
    both = [k for k, (_, s, d0, d1) in enumerate(_EVENT_STATES) if s == 0 and d0 and d1]
    assert len(both) == 2
    vacuum = IntensityClass.VACUUM
    assert np.all(full[:, vacuum, both] == 0.5 * p * p)
    assert np.all(narrow[:, vacuum, both] == 0.5 * (p / 2) * (p / 2))
