from __future__ import annotations

import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from timebin_qkd import detection, experiment
from timebin_qkd.detection import (
    _CELL_STATE,
    _EVENT_BETA,
    _EVENT_STATES,
    BASIS_GROUP_OFFSET_PS,
    INTERFEROMETER_DELAY_PS,
    WINDOW_CENTERS_PS,
    Block,
    DetectorModel,
    PulseLedger,
    SessionCounts,
    TimeTags,
    WindowLayout,
    _draw_events,
    _event_probabilities,
    _event_tables,
    _pathway_outcomes,
    _projection,
    _prune_dead_time_clusters,
    accumulate,
    dark_prob_per_window,
    read_pulse_ledger,
    read_time_tags,
    simulate_block,
    simulate_blocks,
    write_pulse_ledger,
    write_time_tags,
)
from timebin_qkd.errors import InvalidInputError
from timebin_qkd.experiment import ExperimentConfig, run_session
from timebin_qkd.qubit import BB84_SETTINGS, Basis, PreparationSetting, mub_states, overlap_probability
from timebin_qkd.source import IntensityClass, LossBudget, SourceConfig, transmittance
from timebin_qkd.switch import SwitchModel, apply_switch_both_bins, with_delay

from reference import (
    LEDGER_HEAD,
    TAG_HEAD,
    accumulate_loop,
    decode_pulse_ledger,
    decode_time_tags,
    dense_codes,
    event_probabilities_loop,
    ledger_columns,
    ledger_of_codes,
    ledger_of_columns,
    prune_dead_time_loop,
    windows_by_search,
)
from sinks import joined_ledger, tagged_session

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
    ledger = ledger_of_codes(0, [0])
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
    ledger = ledger_of_codes(0, [0])
    low, high = inside
    for ts, hit in ((low, 1), (high, 1), (low - 1, 0), (high + 1, 0)):
        counts = accumulate(_tags((0, 0, ts)), layout, ledger).counts[0, 0, 0]
        assert counts.sum() == counts[window // 2, window % 2] == hit, ts


def test_tags_at_the_int64_ends_land_in_no_window():
    # only the 400 ps tag is in a window; 2**53 + 1 has no float64
    ledger = ledger_of_codes(0, np.zeros(4, dtype=np.int8))
    tags = TimeTags([0, 1, 2, 3], [0, 0, 0, 0], [2**63 - 1, -(2**63), 2**53 + 1, 400])
    counts = accumulate(tags, WindowLayout(), ledger).counts
    assert counts.sum() == counts[0, 0, 0, 0, 0] == 1


def test_overlapping_windows_rejected():
    # the closest two centers are one interferometer delay apart
    WindowLayout(width_ps=INTERFEROMETER_DELAY_PS)
    wider = math.nextafter(INTERFEROMETER_DELAY_PS, math.inf)
    for bad in (0.0, -800.0, wider, 3000.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="width_ps"):
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
            p0, p1, drop = _projection(sw, IDEAL_DET)[int(basis)]
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
                p0, p1, drop = _projection(sw, det)[int(basis)]
                assert p0 >= 0.0 and p1 >= 0.0 and drop >= 0.0
                assert p0 + p1 + drop == pytest.approx(1.0, abs=1e-12)


def test_unswitched_stray_policies():
    # pump off: an early-bin photon never reaches the V pathway
    off = SwitchModel(delta_phi_peak=0.0)
    sw = apply_switch_both_bins(BB84_SETTINGS[0].state(), off)  # prepared t0

    p0, p1, drop = _projection(sw, IDEAL_DET)[Basis.TIME]
    assert (p0, p1, drop) == (0.5, 0.5, 0.0)  # no usable bit, random

    det = replace(IDEAL_DET, stray_time_policy="discard")
    p0, p1, drop = _projection(sw, det)[Basis.TIME]
    assert (p0, p1) == (0.0, 0.0)
    assert drop == pytest.approx(1.0, abs=1e-12)

    det = replace(IDEAL_DET, stray_time_policy="by_polarization")
    p0, p1, drop = _projection(sw, det)[Basis.TIME]
    # H-polarized light exits in the late slot, so the bit reads wrong
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p0 == 0.0 and drop == 0.0


def test_recombination_phase_flips_phase_basis():
    setting = BB84_SETTINGS[2]  # phase, bit 0
    sw = apply_switch_both_bins(setting.state(), PERFECT_SWITCH)
    det = replace(IDEAL_DET, recombination_phase=math.pi)
    (p0, p1, _), (t0, t1, _) = _projection(sw, det)
    assert p1 == pytest.approx(1.0, abs=1e-9)
    ref0, ref1, _ = _projection(sw, IDEAL_DET)[Basis.TIME]
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
    # a (J, 3,2,2,2,2) stack of count sets is no count set: clicks() and
    # the key rate would index its block axis as the class
    for lead in (1, 3):
        counts = np.zeros((lead, 3, 2, 2, 2, 2), dtype=np.int64)
        sent = np.ones((lead, 3, 2, 2), dtype=np.int64)
        with pytest.raises(InvalidInputError, match=r"\(3,2,2,2,2\)"):
            SessionCounts(counts, sent)
        with pytest.raises(InvalidInputError, match=r"\(3,2,2,2,2\)"):
            SessionCounts.from_dict({"counts": counts.tolist(), "pulses_sent": sent.tolist()})


@pytest.mark.parametrize("other", [1, 0.0, None, "counts"])
def test_counts_add_only_counts(other):
    # __add__ used to read other.counts unchecked, which raised AttributeError
    counts = SessionCounts.zeros()
    with pytest.raises(TypeError):
        counts + other
    with pytest.raises(TypeError):
        other + counts


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


def test_counts_reductions_refuse_a_class_outside_0_to_2():
    c = SessionCounts.zeros()
    c.pulses_sent[IntensityClass.VACUUM] = 10  # 40 vacuum pulses, 3 vacuum events
    c.counts[IntensityClass.VACUUM, 0, 0, 0, 0] = 3
    c.pulses_sent[IntensityClass.DECOY] = 5
    reductions = (c.clicks, c.pulses, c.gain, c.matched_clicks, c.matched_errors)
    # -1 would read the vacuum class, True the decoy class
    for cls in (-1, 3, True, 1.5):
        for reduce in reductions:
            with pytest.raises(InvalidInputError, match="intensity class"):
                reduce(cls)
    for cls in (*IntensityClass, np.int64(1)):
        for reduce in reductions:
            assert reduce(cls) == reduce(int(cls))
    assert c.clicks(IntensityClass.VACUUM) == 3 and c.pulses(np.int64(1)) == 20
    assert c.gain(IntensityClass.VACUUM) == 3 / 40


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
    # apply_switch_both_bins -> _projection -> the per-state loop
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
            outcomes = _projection(sw, det)
            q_surv = transmittance(block.budget.path_db) * transmittance(block.budget.detector_db)
            for c, mean in enumerate(means):
                expected = event_probabilities_loop(mean, q_surv, outcomes, det, LAYOUT)
                assert np.array_equal(table[c], expected), (block, det)
    # generic amplitudes round differently in about one operation in a
    # thousand if an operation is changed, so many are compared
    for blocks, det in _random_switched_batches(_rng(47), 512):
        for block, pathways in zip(blocks, _pathway_outcomes(blocks, det)):
            sw = apply_switch_both_bins(block.setting.state(), block.switch)
            assert pathways == _projection(sw, det), (block, det)


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
                assert ledger.start_index == start
                assert _same_ledger(ledger, lone[2]), (det, key)
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
    # the pieces take their silent codes from one dense expansion
    dense = dense_codes(ledger, _rng(21))
    first, second = _piece(ledger, dense, 0, cut), _piece(ledger, dense, cut, len(ledger))
    assert _same_ledger(joined_ledger([first, second]), ledger)
    tags_a = _select(tags, tags.pulse_index < cut)
    tags_b = _select(tags, tags.pulse_index >= cut)
    whole = accumulate(tags, layout, ledger)
    assert accumulate(tags_a, layout, first) + accumulate(tags_b, layout, second) == whole


def _piece(ledger: PulseLedger, dense: np.ndarray, lo: int, hi: int) -> PulseLedger:
    """The ledger of pulses lo..hi - 1 of `ledger`, its totals counted from its dense codes."""
    start = ledger.start_index
    events = (ledger.index >= start + lo) & (ledger.index < start + hi)
    return PulseLedger(
        start + lo, hi - lo, np.bincount(dense[lo:hi], minlength=12),
        ledger.index[events], ledger.code[events],
    )


def test_accumulate_discards_multi_window_pulses():
    layout = WindowLayout()
    ledger = ledger_of_columns(0, np.zeros(4), np.ones(4), np.zeros(4))
    rows = [
        (0, 1, 8000.0),
        (0, 1, 10935.0),  # second window, same pulse: dropped
        (1, 1, 8000.0),
        (2, 1, 5000.0),  # outside every window: ignored
        (3, 0, 0.0),
        (3, 0, 5.0),  # second tag in the same window: dropped too
    ]
    # in pulse order, reversed, and with each pulse's tags apart; the
    # last two are sorted first
    for order in (rows, rows[::-1], rows[::2] + rows[1::2]):
        out = accumulate(_tags(*order), layout, ledger)
        assert out.counts.sum() == 1
        assert out.counts[0, 1, 0, 1, 0] == 1
        assert out.pulses_sent[0, 1, 0] == 4


def test_accumulate_counts_tags_in_any_row_order_as_in_pulse_order():
    # darks and wide jitter give pulses with two tags, in one window or two
    det = replace(IDEAL_DET, jitter_sigma_ps=400.0, dark_count_rate_hz=1e6)
    _, tags, ledger = _tagged_block(
        BB84_SETTINGS[1], 100_000, SourceConfig(), LossBudget(), PERFECT_SWITCH, det,
        _rng(31), start_index=9,
    )
    assert np.all(np.diff(tags.pulse_index) >= 0)
    assert np.any(np.diff(tags.pulse_index) == 0)
    in_order = accumulate(tags, LAYOUT, ledger)
    assert in_order.counts.sum() > 0
    n = len(tags)
    for rows in (np.arange(n)[::-1], _rng(32).permutation(n), _rng(33).permutation(n)):
        assert accumulate(_select(tags, rows), LAYOUT, ledger) == in_order


@pytest.mark.parametrize("width", [0.5, 0.999, 1.0, 800.0, INTERFEROMETER_DELAY_PS])
def test_each_window_edge_lands_where_a_binary_search_puts_it(width):
    layout = WindowLayout(width_ps=width)
    first, last = detection._window_edges(layout)
    # each window's first and last whole picosecond, and one outside each
    stamps = np.concatenate([first - 1, first, last, last + 1])
    want = windows_by_search(layout, stamps)
    ledger = ledger_of_codes(0, np.zeros(len(stamps), dtype=np.int8))
    for ts, window in zip(stamps.tolist(), want.tolist()):
        got = accumulate(_tags((0, 0, ts)), layout, ledger).counts[0, 0, 0].reshape(4)
        assert got.tolist() == [int(k == window) for k in range(4)], (ts, window)
    # all of them at once, one per pulse, in shuffled rows
    rows = _rng(34).permutation(len(stamps))
    tags = TimeTags(rows, np.zeros(len(stamps), dtype=np.int8), stamps[rows])
    got = accumulate(tags, layout, ledger).counts[0, 0, 0].reshape(4)
    assert got.tolist() == np.bincount(want[want >= 0], minlength=4).tolist()
    # the first and last of a window that holds a whole picosecond land in it
    holds = first <= last
    assert (want[4:8] == np.where(holds, np.arange(4), -1)).all()
    assert (want[8:12] == np.where(holds, np.arange(4), -1)).all()


def test_accumulate_rejects_out_of_range_tags():
    layout = WindowLayout()
    ledger = ledger_of_codes(10, np.zeros(5, dtype=np.int8))
    # before and past pulses 10..14, in a window or in none
    for row in ((3, 0, 0.0), (15, 0, 5000.0)):
        with pytest.raises(InvalidInputError, match=f"pulse_index {row[0]} holds no event"):
            accumulate(_tags(row), layout, ledger)


def _assert_record_reads_back(tmp_path, tags, ledger, pulses_sent):
    """Both files of a record read back equal, and the ledger's totals are pulses_sent."""
    write_time_tags(tmp_path / "run.tags", tags)
    write_pulse_ledger(tmp_path / "run.ledger", ledger)
    assert _same_tags(read_time_tags(tmp_path / "run.tags"), tags)
    back = read_pulse_ledger(tmp_path / "run.ledger")
    assert _same_ledger(back, ledger)
    assert np.array_equal(back.totals.reshape(3, 2, 2), pulses_sent)
    # every tag falls on an event pulse
    assert np.isin(tags.pulse_index, back.index).all()
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
    assert np.array_equal(ledger.index, np.arange(4 * 2000))
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
def test_ledger_totals_hold_the_classes_sent(tmp_path, probabilities):
    source = SourceConfig(class_probabilities=probabilities)
    det = replace(DetectorModel(), dark_count_rate_hz=1e6)
    blocks = [
        Block(s, 30_000, LossBudget(), PERFECT_SWITCH, _rng([45, j]))
        for j, s in enumerate(BB84_SETTINGS)
    ]
    for sent, tags, ledger in _tagged_batch(blocks, source, det):
        per_class = ledger.totals.reshape(3, 4).sum(axis=1)
        assert len(tags) > 0 and per_class.argmax() == np.argmax(probabilities)
        assert np.array_equal(np.bincount(ledger_columns(ledger)[0], minlength=3) > 0, per_class > 0)
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
    write_time_tags(tmp_path / "all", tags)
    assert _same_tags(read_time_tags(tmp_path / "all"), tags)
    # the first three tags, byte for byte: the header line, then packed
    # little-endian (int64, int8, int64) records
    write_time_tags(tmp_path / "small", _select(tags, slice(0, 3)))
    assert (tmp_path / "small").read_bytes() == TAG_HEAD + b"".join(
        struct.pack("<qbq", p, d, t)
        for p, d, t in zip(pulse[:3].tolist(), tags.detector_id[:3].tolist(), _EDGE_TIMESTAMPS[:3])
    )
    write_time_tags(tmp_path / "edges", TimeTags([2**63 - 1, 0], [1, 0], [2**63 - 1, -(2**63)]))
    assert (tmp_path / "edges").read_bytes() == (
        b"timebin-qkd time tags/2\n"
        + b"\xff" * 7 + b"\x7f" + b"\x01" + b"\xff" * 7 + b"\x7f"
        + b"\x00" * 8 + b"\x00" + b"\x00" * 7 + b"\x80"
    )
    # a header-only file holds no tags
    write_time_tags(tmp_path / "empty", _tags())
    assert (tmp_path / "empty").read_bytes() == TAG_HEAD
    assert len(read_time_tags(tmp_path / "empty")) == 0


def test_tag_file_of_block_tags_decodes_to_its_tags(tmp_path):
    det = replace(IDEAL_DET, jitter_sigma_ps=150.0, dark_count_rate_hz=1e6)
    _, tags, _ = _tagged_block(
        BB84_SETTINGS[1], 50_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        det, _rng(25), start_index=999_990,
    )
    write_time_tags(tmp_path / "tags", tags)
    data = (tmp_path / "tags").read_bytes()
    assert len(tags) > 100 and len(data) == len(TAG_HEAD) + 17 * len(tags)
    assert decode_time_tags(data) == (
        tags.pulse_index.tolist(), tags.detector_id.tolist(), tags.timestamp_ps.tolist()
    )
    assert _same_tags(read_time_tags(tmp_path / "tags"), tags)


def test_tags_appended_to_one_file_read_back_as_their_concatenation(tmp_path):
    first, second = _tags((4, 0, 15), (4, 0, 2900)), _tags((9, 1, 8000))
    path = tmp_path / "tags"
    with open(path, "wb") as f:
        write_time_tags(f, first)
        write_time_tags(f, _tags())
        write_time_tags(f, second)
    # a file opened for appending starts at its end, so no second header
    with open(path, "ab") as f:
        write_time_tags(f, first)
    assert path.read_bytes().count(TAG_HEAD) == 1
    assert _same_tags(
        read_time_tags(path), _tags((4, 0, 15), (4, 0, 2900), (9, 1, 8000), (4, 0, 15), (4, 0, 2900))
    )


_ONE_TAG = struct.pack("<qbq", 5, 1, 8000)


@pytest.mark.parametrize(
    "data, match",
    [
        (b"pulse_index,detector_id,timestamp_ps\n5,1,8000\n", "CSV tag files of earlier versions"),
        (TAG_HEAD + _ONE_TAG[:-1], "not whole 17-byte records"),
        (TAG_HEAD + _ONE_TAG + _ONE_TAG[:9], "not whole 17-byte records"),
        (b"timebin-qkd time stamps/2\n" + _ONE_TAG, "unrecognized tag file header"),
        (TAG_HEAD.replace(b"/2", b"/1") + _ONE_TAG, "unrecognized tag file header"),
        (TAG_HEAD[:-1], "unrecognized tag file header"),
        (TAG_HEAD[:-1] + _ONE_TAG, "unrecognized tag file header"),
        (TAG_HEAD[:-1] + b"\r\n" + _ONE_TAG, "unrecognized tag file header"),
        (b"\xef\xbb\xbf" + TAG_HEAD + _ONE_TAG, "unrecognized tag file header"),
        (TAG_HEAD + struct.pack("<qbq", 5, 2, 8000), "0 or 1"),
        (TAG_HEAD + struct.pack("<qbq", 5, -1, 8000), "0 or 1"),
        (TAG_HEAD + _ONE_TAG + struct.pack("<qbq", -1, 0, 15), "non-negative"),
        (TAG_HEAD + struct.pack("<qbq", -(2**63), 0, 15), "non-negative"),
        (b"", "unrecognized tag file header"),
    ],
    ids=[
        "csv-of-earlier-versions", "truncated-record", "truncated-second-record", "wrong-header",
        "version-1-header", "header-only-without-newline", "header-without-newline",
        "crlf-header", "byte-order-mark", "detector-2", "detector-minus-1",
        "negative-pulse-index", "int64-min-pulse-index", "empty-file",
    ],
)
def test_tag_reader_refuses_what_the_writer_cannot_write(tmp_path, data, match):
    path = tmp_path / "tags"
    path.write_bytes(data)
    with pytest.raises(InvalidInputError, match=match):
        read_time_tags(path)


def test_read_time_tags_keeps_17_bytes_per_tag(tmp_path):
    # two int64 columns and one int8 column, copied out of the 17-byte
    # records np.frombuffer reads, which are freed
    n = 100_000
    rng = _rng(26)
    write_time_tags(
        tmp_path / "tags", TimeTags(np.arange(n), rng.integers(0, 2, n), rng.integers(-999, 999, n))
    )
    tracemalloc.start()
    try:
        tags = read_time_tags(tmp_path / "tags")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tags) == n
    assert 17 * n <= retained < 17.5 * n, retained / n


def _random_ledger(rng, start_index: int, n: int, event_share: float = 0.3) -> PulseLedger:
    """A ledger of n pulses with random codes, each pulse an event pulse with probability event_share."""
    dense = rng.integers(0, 12, n)
    events = np.flatnonzero(rng.random(n) < event_share)
    return PulseLedger(
        start_index, n, np.bincount(dense, minlength=12), start_index + events, dense[events]
    )


def _same_ledger(a: PulseLedger, b: PulseLedger) -> bool:
    return (
        (a.start_index, len(a)) == (b.start_index, len(b))
        and all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ("totals", "index", "code"))
    )


_ONE = [1] + [0] * 11  # the totals of one pulse of code 0
_CODE_11 = [0] * 11 + [1]


def _ledger_bytes(start: int, pulses: int, totals, events) -> bytes:
    """A ledger file past its header: the 120-byte summary record, then the 9-byte (index, code) records."""
    events = list(events)
    return struct.pack("<15q", start, pulses, *totals, len(events)) + b"".join(
        struct.pack("<qb", index, code) for index, code in events
    )


@pytest.mark.parametrize("start_index", [0, 9, 123_456_789, 2**63 - 1000])
def test_ledger_file_is_a_header_line_a_summary_record_and_9_byte_events(tmp_path, start_index):
    ledger = _random_ledger(_rng(22), start_index, 1000)
    assert 0 < len(ledger.index) < 1000
    path = tmp_path / "ledger"
    write_pulse_ledger(path, ledger)
    written = path.read_bytes()
    assert written == LEDGER_HEAD + _ledger_bytes(
        start_index, 1000, ledger.totals.tolist(), zip(ledger.index.tolist(), ledger.code.tolist())
    )
    assert len(written) == len(LEDGER_HEAD) + 120 + 9 * len(ledger.index)
    assert _same_ledger(read_pulse_ledger(path), ledger)


def test_ledgers_appended_to_one_file_read_back_as_their_concatenation(tmp_path):
    rng = _rng(23)
    first, second = _random_ledger(rng, 40, 7), _random_ledger(rng, 47, 5)
    path = tmp_path / "ledger"
    with open(path, "w+b") as f:
        write_pulse_ledger(f, first)
        write_pulse_ledger(f, second)
    whole = read_pulse_ledger(path)
    assert _same_ledger(whole, joined_ledger([first, second]))
    assert (whole.start_index, len(whole)) == (40, 12)
    # the appends' file is the bytes of their join written at once
    write_pulse_ledger(tmp_path / "at-once", whole)
    assert path.read_bytes() == (tmp_path / "at-once").read_bytes()


def test_ledger_appended_to_a_reopened_file_keeps_one_header(tmp_path):
    rng = _rng(24)
    first, second = _random_ledger(rng, 0, 6), _random_ledger(rng, 6, 9)
    path = tmp_path / "ledger"
    write_pulse_ledger(path, first)
    # the file already holds a ledger, so no second header
    with open(path, "r+b") as f:
        write_pulse_ledger(f, second)
    assert path.read_bytes().count(LEDGER_HEAD) == 1
    assert _same_ledger(read_pulse_ledger(path), joined_ledger([first, second]))


@pytest.mark.parametrize("start", [100, 6, 3, 0], ids=["gap", "gap-of-one", "overlap", "restart"])
def test_ledger_that_does_not_continue_the_open_file_is_refused_unwritten(tmp_path, start):
    # the file's ledger holds pulses 0..4, so the next one must start at 5
    rng = _rng(25)
    path = tmp_path / "ledger"
    with open(path, "w+b") as f:
        write_pulse_ledger(f, _random_ledger(rng, 0, 2))
        write_pulse_ledger(f, _random_ledger(rng, 2, 3))
        f.flush()
        written = path.read_bytes()
        with pytest.raises(InvalidInputError, match="goes on at pulse 5"):
            write_pulse_ledger(f, _random_ledger(rng, start, 5))
        f.flush()
        assert path.read_bytes() == written
        write_pulse_ledger(f, _random_ledger(rng, 5, 2))
    assert len(read_pulse_ledger(path)) == 7


def test_ledger_appended_to_a_garbled_file_is_refused_unwritten(tmp_path):
    # the writer checks the file's size against its summary before it appends
    path = tmp_path / "ledger"
    write_pulse_ledger(path, _random_ledger(_rng(29), 0, 40))
    cut = path.read_bytes()[:-1]
    path.write_bytes(cut)
    with open(path, "r+b") as f:
        with pytest.raises(InvalidInputError, match="events"):
            write_pulse_ledger(f, _random_ledger(_rng(30), 40, 5))
    assert path.read_bytes() == cut


@pytest.mark.parametrize(
    "data, match",
    [
        (LEDGER_HEAD.replace(b"/4", b"/3") + _ledger_bytes(0, 1, _ONE, []), "pulse ledger/3 files"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [])[:-1], "summary record at byte 27 is cut short"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, []) + b"\x00", "counts 0 events, but 1 bytes"),
    ],
    ids=["version-3-file", "truncated-summary-record", "byte-past-the-count"],
)
def test_ledger_appended_to_a_file_it_cannot_read_is_refused_unwritten(tmp_path, data, match):
    # the summary is rewritten in place, so a file whose summary the
    # writer cannot trust is left as it was
    path = tmp_path / "ledger"
    path.write_bytes(data)
    with open(path, "r+b") as f:
        with pytest.raises(InvalidInputError, match=match):
            write_pulse_ledger(f, _random_ledger(_rng(31), 1, 5))
    assert path.read_bytes() == data


def test_ledger_needs_an_open_file_it_can_read(tmp_path):
    path = tmp_path / "ledger"
    with open(path, "wb") as f:
        with pytest.raises(InvalidInputError, match="readable"):
            write_pulse_ledger(f, _random_ledger(_rng(26), 0, 5))
    assert path.read_bytes() == b""
    # an append-mode file writes at its end whatever the position, so the
    # writer could not rewrite the summary: it is refused, empty or not
    with open(path, "a+b") as f:
        with pytest.raises(InvalidInputError, match="not a\\+b"):
            write_pulse_ledger(f, _random_ledger(_rng(26), 0, 5))
    assert path.read_bytes() == b""
    write_pulse_ledger(path, _random_ledger(_rng(26), 0, 5))
    written = path.read_bytes()
    with open(path, "a+b") as f:
        with pytest.raises(InvalidInputError, match="not a\\+b"):
            write_pulse_ledger(f, _random_ledger(_rng(26), 5, 5))
    assert path.read_bytes() == written


class _ReadCounter:
    """An open file that counts the bytes its reads return."""

    def __init__(self, f) -> None:
        self._f, self.read_bytes = f, 0

    def read(self, *args) -> bytes:
        data = self._f.read(*args)
        self.read_bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._f, name)


def test_ledger_append_reads_the_same_bytes_however_many_appends_came_before(tmp_path):
    # each append reads the header and the summary, not the earlier appends
    rng = _rng(31)
    read = {}
    with open(tmp_path / "ledger", "w+b") as f:
        counted = _ReadCounter(f)
        write_pulse_ledger(counted, _random_ledger(rng, 0, 1))
        for k in range(1, 1001):
            before = counted.read_bytes
            write_pulse_ledger(counted, _random_ledger(rng, k, 1))
            if k in (1, 10, 1000):
                read[k] = counted.read_bytes - before
    assert read[1] == read[10] == read[1000] <= len(LEDGER_HEAD) + 120, read
    back = read_pulse_ledger(tmp_path / "ledger")
    assert (back.start_index, len(back)) == (0, 1001)


def _mutants(rng, data: bytes, header_len: int, count: int):
    """Copies of a record file with one byte replaced, dropped or inserted, or its tail cut."""
    near = b"0123456789\n\r:+- \x00\x0b\x0c\x7f\x80\xff"
    for _ in range(count):
        # half of the edits fall in the first header_len bytes, the header
        top = header_len if rng.random() < 0.5 else len(data)
        at = int(rng.integers(0, top))
        value = near[rng.integers(len(near))] if rng.random() < 0.7 else rng.integers(256)
        byte = bytes([int(value)])
        kind = rng.integers(4)
        if kind == 0:
            yield data[:at] + byte + data[at + 1 :]
        elif kind == 1:
            yield data[:at] + data[at + 1 :]
        elif kind == 2:
            yield data[:at] + byte + data[at:]
        else:
            yield data[:at]


def _ledger_tuple(ledger: PulseLedger) -> tuple:
    """A ledger as decode_pulse_ledger gives it."""
    return (
        ledger.start_index, len(ledger), ledger.totals.tolist(),
        ledger.index.tolist(), ledger.code.tolist(),
    )


@pytest.mark.parametrize("start_index", [0, 9, 99_999, 2**63 - 40, 2**63 - 1])
def test_ledger_reader_agrees_with_the_reference_on_mutated_files(tmp_path, start_index):
    # one ledger, or two appended where the int64 end leaves room; the
    # edits fall in the header line and the summary record half the time
    rng = _rng(start_index)
    n = min(int(rng.integers(1, 30)), 2**63 - start_index)
    ledgers = [_random_ledger(rng, start_index, n, event_share=0.5)]
    if start_index + n + 4 <= 2**63:
        ledgers.append(_random_ledger(rng, start_index + n, 4, event_share=0.5))
    path = tmp_path / "ledger"
    with open(path, "w+b") as f:
        for ledger in ledgers:
            write_pulse_ledger(f, ledger)
    written = path.read_bytes()
    assert decode_pulse_ledger(written) == _ledger_tuple(joined_ledger(ledgers))
    # a file the reader takes has exactly the summary's size, so only a
    # replaced byte leaves one, mostly a byte replaced by its own value:
    # about 1 edit in 180 at these seeds, so 2,000 edits make about 11
    outcomes = set()
    for data in _mutants(rng, written, len(LEDGER_HEAD) + 120, 2000):
        path.write_bytes(data)
        expected = decode_pulse_ledger(data)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(InvalidInputError):
                read_pulse_ledger(path)
        else:
            assert _ledger_tuple(read_pulse_ledger(path)) == expected, data
    # the edits made both files the reader takes and files it refuses
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_tag_reader_agrees_with_the_reference_on_mutated_files(tmp_path, seed):
    rng = _rng([28, seed])
    n = int(rng.integers(1, 12))
    pulse = np.sort(rng.integers(0, 2**63 - 1, n, dtype=np.int64, endpoint=True))
    ts = rng.choice(np.array(_EDGE_TIMESTAMPS), n)
    tags = TimeTags(pulse, rng.integers(0, 2, n), ts)
    path = tmp_path / "tags"
    write_time_tags(path, tags)
    written = path.read_bytes()
    assert decode_time_tags(written) == (pulse.tolist(), tags.detector_id.tolist(), ts.tolist())
    outcomes = set()
    for data in _mutants(rng, written, len(TAG_HEAD), 300):
        path.write_bytes(data)
        expected = decode_time_tags(data)
        outcomes.add(expected is None)
        if expected is None:
            with pytest.raises(InvalidInputError):
                read_time_tags(path)
        else:
            back = read_time_tags(path)
            got = (back.pulse_index.tolist(), back.detector_id.tolist(), back.timestamp_ps.tolist())
            assert got == expected, data
    # the edits made both files the reader takes and files it refuses
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "data, match",
    [
        (b"pulse_index,intensity_class,alpha,bit\n0,1,0,1\n", "CSV ledgers of earlier versions"),
        (b"timebin-qkd pulse ledger/2 start_index=0\n\x01", "pulse ledger/2 files"),
        (LEDGER_HEAD.replace(b"/4", b"/3") + _ledger_bytes(0, 1, _ONE, []), "pulse ledger/3 files"),
        (LEDGER_HEAD.replace(b"/4", b"/1") + _ledger_bytes(0, 1, _ONE, []), "unrecognized pulse ledger header"),
        (LEDGER_HEAD[:-5], "unrecognized pulse ledger header"),
        (LEDGER_HEAD[:-1], "unrecognized pulse ledger header"),
        (LEDGER_HEAD[:-1] + b"\r\n" + _ledger_bytes(0, 1, _ONE, []), "unrecognized pulse ledger header"),
        (b"\xef\xbb\xbf" + LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, []), "unrecognized pulse ledger header"),
        (b"", "unrecognized pulse ledger header"),
        (LEDGER_HEAD, "summary record at byte 27 is cut short"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [])[:-1], "summary record at byte 27 is cut short"),
        (LEDGER_HEAD + _ledger_bytes(0, 2, [2] + [0] * 11, [(0, 0), (1, 0)])[:-1], "counts 2 events, but 17 bytes"),
        (LEDGER_HEAD + _ledger_bytes(0, 2, [2] + [0] * 11, [(0, 0)]) + struct.pack("<qb", 1, 0), "counts 1 events, but 18 bytes"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, []) + b"\x00", "counts 0 events, but 1 bytes"),
        (
            LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, 0)]) + _ledger_bytes(1, 1, _ONE, [(1, 0)]),
            "counts 1 events, but 138 bytes",
        ),
        (LEDGER_HEAD + _ledger_bytes(0, 2, [2] + [0] * 11, [])[:-8] + struct.pack("<q", -1), "counts -1 events"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, 12)]), "0..11"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, -1)]), "0..11"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, 127)]), "0..11"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, -128)]), "0..11"),
        (LEDGER_HEAD + _ledger_bytes(0, 3, [2] + [0] * 11, []), "sum to the pulses"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, [2, -1] + [0] * 10, []), "non-negative"),
        (LEDGER_HEAD + _ledger_bytes(0, 3, [3] + [0] * 11, [(1, 0), (1, 0)]), "strictly increase"),
        (LEDGER_HEAD + _ledger_bytes(0, 3, [3] + [0] * 11, [(2, 0), (1, 0)]), "strictly increase"),
        (LEDGER_HEAD + _ledger_bytes(5, 3, [3] + [0] * 11, [(4, 0)]), "within its pulses"),
        (LEDGER_HEAD + _ledger_bytes(5, 3, [3] + [0] * 11, [(8, 0)]), "within its pulses"),
        (LEDGER_HEAD + _ledger_bytes(0, 2, [1, 1] + [0] * 10, [(0, 1), (1, 1)]), "code 1 occurs more often"),
        (LEDGER_HEAD + _ledger_bytes(0, 1, _ONE, [(0, 11)]), "code 11 occurs more often"),
        (LEDGER_HEAD + _ledger_bytes(-1, 1, _ONE, []), "start_index"),
        (LEDGER_HEAD + _ledger_bytes(0, 0, [0] * 12, []), "empty pulse ledger"),
        (LEDGER_HEAD + _ledger_bytes(2**63 - 1, 2, [2] + [0] * 11, []), "int64"),
        (
            LEDGER_HEAD + _ledger_bytes(0, 12_001, [1001] * 11 + [990], [*((i, i % 12) for i in range(12_000)), (12_000, 12)]),
            "0..11",
        ),
    ],
    ids=[
        "csv-of-earlier-versions", "version-2-file", "version-3-file", "version-1-header",
        "truncated-header", "header-without-newline", "crlf-header", "byte-order-mark", "empty-file",
        "no-summary-record", "truncated-summary-record", "event-body-short-of-the-count",
        "event-body-past-the-count", "byte-past-the-count", "second-summary-record",
        "negative-event-count", "code-12",
        "code-minus-1", "code-127", "code-minus-128", "totals-not-summing-to-the-pulses",
        "negative-total", "repeated-index", "decreasing-index", "index-before-the-range",
        "index-past-the-range", "code-past-its-total", "code-without-a-total",
        "negative-start-index", "range-of-no-pulses", "last-index-beyond-int64",
        "bad-code-after-12000-good-ones",
    ],
)
def test_ledger_reader_refuses_what_the_writer_cannot_write(tmp_path, data, match):
    path = tmp_path / "ledger"
    path.write_bytes(data)
    assert decode_pulse_ledger(data) is None
    with pytest.raises(InvalidInputError, match=match):
        read_pulse_ledger(path)


def test_ledger_reader_takes_the_last_int64_pulse_index(tmp_path):
    path = tmp_path / "ledger"
    path.write_bytes(LEDGER_HEAD + _ledger_bytes(2**63 - 1, 1, _CODE_11, [(2**63 - 1, 11)]))
    ledger = read_pulse_ledger(path)
    assert (ledger.start_index, len(ledger), ledger.index.tolist()) == (2**63 - 1, 1, [2**63 - 1])
    assert [column.tolist() for column in ledger_columns(ledger)] == [[2], [1], [1]]


def test_ledger_reader_takes_ranges_without_events(tmp_path):
    # a range of silent pulses adds its totals alone to the summary
    path = tmp_path / "ledger"
    with open(path, "w+b") as f:
        for ledger in (
            PulseLedger(7, 3, [0, 3] + [0] * 10, [], []),
            PulseLedger(10, 2, [0, 1, 1] + [0] * 9, [11], [2]),
            PulseLedger(12, 5, [0] * 11 + [5], [], []),
        ):
            write_pulse_ledger(f, ledger)
    assert path.read_bytes() == LEDGER_HEAD + _ledger_bytes(7, 10, [0, 4, 1] + [0] * 8 + [5], [(11, 2)])
    ledger = read_pulse_ledger(path)
    assert _ledger_tuple(ledger) == (7, 10, [0, 4, 1] + [0] * 8 + [5], [11], [2])
    assert decode_pulse_ledger(path.read_bytes()) == _ledger_tuple(ledger)


def test_read_pulse_ledger_keeps_9_bytes_per_event(tmp_path):
    n = 400_000
    path = tmp_path / "ledger"
    write_pulse_ledger(path, _random_ledger(_rng(27), 0, n, event_share=0.5))
    events = (path.stat().st_size - len(LEDGER_HEAD) - 120) // 9
    tracemalloc.start()
    try:
        ledger = read_pulse_ledger(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ledger) == n and len(ledger.index) == events > 0.45 * n
    # the index and code columns, copied out of the file's records, which
    # are freed; at the peak both are held, with at most a byte per event
    # of temporaries
    assert 9 * events <= retained < 9 * events + 4096, retained / events
    assert peak < 20 * events, peak / events


def test_ledger_values_are_range_checked():
    ok = PulseLedger(0, 3, np.bincount([1, 6, 9], minlength=12), [0, 1, 2], [1, 6, 9])
    assert len(ok) == 3
    assert [column.tolist() for column in ledger_columns(ok)] == [[0, 1, 2], [0, 1, 0], [1, 0, 1]]
    # a fraction is refused, not truncated
    for code in ([12], [-1], [1.5], [0.5], [math.nan]):
        with pytest.raises(InvalidInputError, match="ledger codes"):
            PulseLedger(0, 1, _ONE, [0], code)
    for start in (0.5, -1, -1.0, math.nan, math.inf, 2.0**63):
        with pytest.raises(InvalidInputError, match="start_index"):
            PulseLedger(start, 1, _ONE, [], [])
    for pulses in (0.5, 1.5, math.nan):
        with pytest.raises(InvalidInputError, match="pulses"):
            PulseLedger(0, pulses, _ONE, [], [])
    for totals in ([0.5, 0.5] + [0] * 10, [math.inf] + [0] * 11):
        with pytest.raises(InvalidInputError, match="ledger totals"):
            PulseLedger(0, 1, totals, [], [])
    with pytest.raises(InvalidInputError, match="ledger pulse indices"):
        PulseLedger(0, 2, [2] + [0] * 11, [0.5], [0])
    # integral floats are still taken
    whole = PulseLedger(3.0, 1.0, [0.0] * 10 + [1.0, 0.0], [3.0], [10.0])
    assert (whole.start_index, len(whole), whole.code.tolist()) == (3, 1, [10])
    # codes are checked in their own dtype before narrowing to int8, where
    # 267 would wrap to 11, 256 to 0 and -254 to 2
    for value in (268, 267, 256, -254):
        with pytest.raises(InvalidInputError, match="0..11"):
            PulseLedger(0, 2, [2] + [0] * 11, [0, 1], np.array([0, value], dtype=np.int64))
    # a negative int8 code is refused, and so is an unsigned one past 11
    for code in (np.array([-1], dtype=np.int8), np.array([-128], dtype=np.int8),
                 np.array([12], dtype=np.uint8), np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(InvalidInputError):
            PulseLedger(0, 1, _ONE, [0], code)
    # 12 totals, none negative, that sum to the pulses, even past int64
    for totals in ([1] * 11, [1] * 13, [[1] * 12]):
        with pytest.raises(InvalidInputError, match="one non-negative count per code"):
            PulseLedger(0, 12, totals, [], [])
    with pytest.raises(InvalidInputError, match="sum to the pulses"):
        PulseLedger(0, 2, [2**62] * 8 + [2] + [0] * 3, [], [])


def test_python_ints_beyond_the_float_range_are_refused():
    # numpy holds them as objects, whose cast to float64 overflows
    with pytest.raises(InvalidInputError, match="start_index"):
        PulseLedger(10**400, 1, _ONE, [], [])
    with pytest.raises(InvalidInputError, match="ledger totals"):
        PulseLedger(0, 1, [10**400] + [0] * 11, [], [])
    with pytest.raises(InvalidInputError, match="pulse_index"):
        TimeTags([10**400], [0], [0])
    with pytest.raises(InvalidInputError, match="whole picoseconds"):
        TimeTags([0], [0], [-(10**400)])


def test_ledger_refuses_what_its_file_could_not_hold():
    # the last pulse index passes int64
    with pytest.raises(InvalidInputError, match="int64"):
        PulseLedger(2**63 - 1, 2, [2] + [0] * 11, [], [])
    with pytest.raises(InvalidInputError, match="empty pulse ledger"):
        PulseLedger(0, 0, [0] * 12, [], [])
    # a table of codes or indices would be written as its flattened bytes
    # and read back as another ledger; each code needs its index
    for index, code in ((np.zeros((2, 3)), np.zeros((2, 3))), (5, 5), ([0, 1], [0]), ([0], [0, 1])):
        with pytest.raises(InvalidInputError, match="two columns of equal length"):
            PulseLedger(0, 6, [6] + [0] * 11, index, code)


def test_a_tag_on_a_pulse_without_an_event_is_refused():
    # pulses 10..19, events on 12 and 15 only
    ledger = PulseLedger(10, 10, [8, 2] + [0] * 10, [12, 15], [1, 1])
    layout = WindowLayout()
    ok = accumulate(_tags((12, 0, 0), (15, 0, 0), (15, 1, 8000)), layout, ledger)
    # pulse 15's two windowed tags are dropped
    assert ok.counts[0, 0, 1, 0, 0] == ok.counts.sum() == 1 and ok.pulses_sent.sum() == 10
    for pulse in (10, 13, 16, 19):
        with pytest.raises(InvalidInputError, match=f"pulse_index {pulse} holds no event"):
            accumulate(_tags((12, 0, 0), (pulse, 0, 2935)), layout, ledger)
    # nor may it fall on a pulse of a ledger without events
    silent = PulseLedger(0, 4, [4] + [0] * 11, [], [])
    with pytest.raises(InvalidInputError, match="holds no event"):
        accumulate(_tags((2, 1, 8000)), layout, silent)


def test_a_later_write_into_the_callers_columns_leaves_the_ledger_unchanged():
    base = np.zeros(3, dtype=np.int8)
    view = base[:]
    view.flags.writeable = False  # read-only, but its base is not
    for code, owner in [
        (np.zeros(3, dtype=np.int8), None),
        (view, base),
        (np.zeros(3, dtype=np.int64), None),
    ]:
        owner = code if owner is None else owner
        index, totals = np.arange(3), np.array([3] + [0] * 11)
        ledger = PulseLedger(0, 3, totals, index, code)
        owner[0], index[0], totals[0] = 99, 1, 0
        assert ledger.code.tolist() == [0, 0, 0] and ledger.index.tolist() == [0, 1, 2]
        assert ledger.totals[0] == 3
        for column in (ledger.code, ledger.index, ledger.totals):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 99


def test_ledger_copies_each_column_once():
    # read-only or not, the caller's columns are copied, once, into the
    # ledger's 9 bytes per event
    n = 200_000
    for read_only in (True, False):
        index, code = np.arange(n), np.zeros(n, dtype=np.int8)
        index.flags.writeable = code.flags.writeable = not read_only
        tracemalloc.start()
        try:
            ledger = PulseLedger(0, n, [n] + [0] * 11, index, code)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ledger.index is not index and ledger.code is not code
        assert 9 * n <= retained < 9 * n + 4096, retained / n
        assert peak < 10.1 * n, peak / n


@pytest.mark.parametrize(
    "start_index, code",
    [(0, [0]), (2**63 - 1, [11]), (2**63 - 12, list(range(12))), (7, [3, 0, 11, 11, 4, 9])],
    ids=["start-0", "last-int64-index", "twelve-codes-to-the-int64-end", "several-pulses"],
)
def test_every_ledger_the_constructor_takes_reads_back_equal(tmp_path, start_index, code):
    # every pulse an event, then only the odd pulses, then none
    n = len(code)
    totals = np.bincount(code, minlength=12)
    for events in (np.arange(n), np.arange(1, n, 2), np.arange(0)):
        ledger = PulseLedger(start_index, n, totals, start_index + events, np.array(code)[events])
        write_pulse_ledger(tmp_path / "ledger", ledger)
        back = read_pulse_ledger(tmp_path / "ledger")
        assert _same_ledger(back, ledger)
        assert decode_pulse_ledger((tmp_path / "ledger").read_bytes()) == _ledger_tuple(ledger)


def _ledgers_of_every_source(tmp_path) -> tuple[PulseLedger, ...]:
    """A ledger made from columns, read back from its file, and simulated."""
    made = ledger_of_columns(0, [0, 1, 2], np.array([0, 1, 0], dtype=np.int64), [1.0, 0.0, 1.0])
    write_pulse_ledger(tmp_path / "written", made)
    _, _, simulated = _tagged_block(
        BB84_SETTINGS[0], 5_000, SourceConfig(), LossBudget(), PERFECT_SWITCH,
        DetectorModel(), _rng(3),
    )
    return (
        made,
        read_pulse_ledger(tmp_path / "written"),
        simulated,
    )


def test_ledger_columns_are_int64_totals_and_indices_and_int8_codes(tmp_path):
    for ledger in _ledgers_of_every_source(tmp_path):
        assert ledger.totals.dtype == ledger.index.dtype == np.int64
        assert ledger.code.dtype == np.int8


def test_ledger_holds_9_bytes_per_event_in_read_only_columns(tmp_path):
    for ledger in _ledgers_of_every_source(tmp_path):
        arrays = [v for v in vars(ledger).values() if isinstance(v, np.ndarray)]
        assert sorted(a.nbytes for a in arrays) == sorted([96, 8 * len(ledger.index), len(ledger.index)])
        for name in ("totals", "index", "code"):
            column = getattr(ledger, name)
            before = column.tolist()
            # the columns passed the constructor's checks; neither a write
            # into one nor a new column may bypass them
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
            with pytest.raises(AttributeError):
                setattr(ledger, name, np.zeros(len(column), dtype=column.dtype))
            assert getattr(ledger, name).tolist() == before


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
        ledger = ledger_of_columns(
            start, rng.integers(0, 3, n), rng.integers(0, 2, n), rng.integers(0, 2, n)
        )
        tags = _edge_case_tags(rng, layout, n, int(rng.integers(0, 80)))
        tags.pulse_index += start
        # every pulse of these ledgers is an event pulse: the codes are dense
        loop = accumulate_loop(tags, layout, start, ledger.code)
        assert accumulate(tags, layout, ledger) == loop, seed
    # a full block's tags
    layout = WindowLayout()
    det = replace(IDEAL_DET, jitter_sigma_ps=400.0, dark_count_rate_hz=1e6)
    _, tags, ledger = _tagged_block(
        BB84_SETTINGS[3], 100_000, SourceConfig(), LossBudget(), PERFECT_SWITCH, det,
        _rng(23), start_index=77,
    )
    dense = dense_codes(ledger, _rng(24))
    assert accumulate(tags, layout, ledger) == accumulate_loop(tags, layout, 77, dense)
    assert accumulate(_tags(), layout, ledger) == accumulate_loop(_tags(), layout, 77, dense)
    # at width 0.5 windows 1 and 3 hold no whole picosecond
    first, last = detection._window_edges(WindowLayout(width_ps=0.5))
    assert (first == last + 1).tolist() == [False, True, False, True]
    for seed, width in enumerate((0.5, 0.999, 1.0, 800.0, INTERFEROMETER_DELAY_PS)):
        layout = WindowLayout(width_ps=width)
        first, last = detection._window_edges(layout)
        rng = _rng(200 + seed)
        # each window's first - 1, first, last and last + 1, each alone on
        # one of pulses 0..15, then again on one of pulses 16..23; shuffled
        stamps = np.tile(np.concatenate([first - 1, first, last, last + 1]), 2)
        pulse = np.concatenate([np.arange(16), 16 + rng.integers(0, 8, 16)])
        tags = _select(TimeTags(5 + pulse, rng.integers(0, 2, 32), stamps), rng.permutation(32))
        ledger = _random_ledger(rng, 5, 24, event_share=1.0)
        counts = accumulate(tags, layout, ledger)
        assert counts == accumulate_loop(tags, layout, 5, ledger.code), width
        # the lone first and last of every window that holds a picosecond
        assert counts.counts.sum() >= 2 * np.count_nonzero(first <= last), width


def test_accumulate_of_ledger_pieces_equals_the_loop_over_any_dense_expansion(monkeypatch):
    # a session cut into blocks of 5,000 pulses, three per setting, with
    # darks and wide jitter for pulses with two tags and tags out of every
    # window; each piece's silent codes take several arrangements
    monkeypatch.setattr(experiment, "BLOCK_PULSES", 5_000)
    cfg = ExperimentConfig(seed=35)
    cfg = replace(cfg, detector=replace(cfg.detector, jitter_sigma_ps=400.0, dark_count_rate_hz=1e6))
    pieces = []
    res = run_session(cfg, pulses=12_000, sink=lambda tags, ledger: pieces.append((tags, ledger)))
    assert len(pieces) == 12
    total = SessionCounts.zeros()
    for k, (tags, ledger) in enumerate(pieces):
        counts = accumulate(tags, cfg.layout, ledger)
        for seed in range(3):
            dense = dense_codes(ledger, _rng([36, k, seed]))
            assert np.array_equal(np.bincount(dense, minlength=12), ledger.totals)
            assert np.array_equal(dense[ledger.index - ledger.start_index], ledger.code)
            assert counts == accumulate_loop(tags, cfg.layout, ledger.start_index, dense), (k, seed)
        total += counts
    # the pieces joined give the sum of their counts
    _, all_tags, whole = tagged_session(cfg, pulses=12_000)
    assert total.pulses_sent.sum() == 48_000 and total == accumulate(all_tags, cfg.layout, whole)
    assert np.array_equal(total.pulses_sent, res.counts.pulses_sent)
    assert 0 < total.counts.sum() < res.counts.counts.sum()


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
