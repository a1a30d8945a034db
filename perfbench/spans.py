"""In-memory span tracer and the per-layer metrics derived from its spans.

The traced run replaces public functions of `timebin_qkd` with timing
wrappers at the module attribute their caller looks up: `experiment`
imported `simulate_block` by name, so patching `detection.simulate_block`
alone would miss the calls the flows make.  Each wrapper records one span
(name, thread, start, end, parent) per call.  A span opened on a pool
thread has no open span of its own thread, so its parent is the innermost
open span of the thread that created the tracer, which is the flow that
submitted the work.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    pulses: int = 0
    tags: int = 0
    events: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None):
        """Return `fn` recording a span `name`; `measure(span, args, kwargs, result)` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._home_stack)[-1]
            except IndexError:
                parent = None
            span = Span(next(self._ids), parent, name, threading.get_ident(), 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Swap in a wrapper for every (module, attribute, span name, measure) while inside."""
        saved = []
        try:
            for module, attr, name, measure in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, measure))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _block(span, args, kwargs, result):
    if kwargs.get("collect_tags"):
        span.name = "detection.simulate_block_tags"
        result = result[0]
    span.pulses = int(args[1])
    span.events = int(result.counts.sum())


def _tags_arg0(span, args, kwargs, result):
    span.tags = len(args[0])


def _tags_arg1(span, args, kwargs, result):
    span.tags = len(args[1])


def _pulses_arg(span, args, kwargs, result):
    span.pulses = len(args[1])


def _tags_result(span, args, kwargs, result):
    span.tags = len(result)


def _pulses_result(span, args, kwargs, result):
    span.pulses = len(result)


FLOWS = ("experiment.run_session", "experiment.run_pump_delay_scan")


def patch_points():
    """Every function the traced run wraps, at the name its caller looks up."""
    from timebin_qkd import cli, detection, experiment

    return [
        (experiment, "run_session", "experiment.run_session", None),
        (experiment, "run_pump_delay_scan", "experiment.run_pump_delay_scan", None),
        (experiment, "simulate_block", "detection.simulate_block", _block),
        (experiment, "derived_rng", "source.derived_rng", None),
        (experiment, "secret_key_rate", "analysis.secret_key_rate", None),
        (experiment, "conditional_probabilities", "analysis.conditional_probabilities", None),
        (detection, "apply_switch_both_bins", "switch.apply_switch_both_bins", None),
        (detection, "read_time_tags", "detection.read_time_tags", _tags_result),
        (detection, "read_pulse_ledger", "detection.read_pulse_ledger", _pulses_result),
        (detection, "accumulate", "detection.accumulate", _tags_arg0),
        (cli, "main", "cli.main", None),
        (cli, "run_session", "experiment.run_session", None),
        (cli, "write_counts_json", "experiment.write_counts_json", None),
        (cli, "write_time_tags", "detection.write_time_tags", _tags_arg1),
        (cli, "write_pulse_ledger", "detection.write_pulse_ledger", _pulses_arg),
    ]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric a change in this layer should move
    on: str  # the workloads where it does


# A layer that a workload never calls reads 0 on that workload.
LAYER_METRICS = (
    LayerMetric("detection.simulate_block.ns_per_pulse", "ns/pulse", "lower", "pulses_per_s", "session pump_scan"),
    LayerMetric("detection.simulate_block.calls", "count", "lower", "pulses_per_s", "session pump_scan"),
    LayerMetric("detection.simulate_block_tags.ns_per_pulse", "ns/pulse", "lower", "pulses_per_s peak_rss_mb", "tag_dump"),
    LayerMetric("detection.clicks_per_pulse", "clicks/pulse", "higher", "none: a property of the input", "all"),
    LayerMetric("detection.write_pulse_ledger.ns_per_pulse", "ns/pulse", "lower", "pulses_per_s", "tag_dump"),
    LayerMetric("detection.read_pulse_ledger.ns_per_pulse", "ns/pulse", "lower", "pulses_per_s", "tag_dump"),
    LayerMetric("detection.write_time_tags.us_per_tag", "us/tag", "lower", "pulses_per_s peak_rss_mb", "tag_dump"),
    LayerMetric("detection.read_time_tags.us_per_tag", "us/tag", "lower", "pulses_per_s peak_rss_mb", "tag_dump"),
    LayerMetric("detection.accumulate.us_per_tag", "us/tag", "lower", "pulses_per_s peak_rss_mb", "tag_dump"),
    LayerMetric("detection.tags", "count", "higher", "pulses_per_s peak_rss_mb", "tag_dump"),
    LayerMetric("switch.apply_switch_both_bins.us_per_call", "us/call", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("switch.apply_switch_both_bins.calls", "count", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("source.derived_rng.us_per_call", "us/call", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("source.derived_rng.calls", "count", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("analysis.secret_key_rate.us_per_call", "us/call", "lower", "pulses_per_s", "session tag_dump"),
    LayerMetric("analysis.conditional_probabilities.calls", "count", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("experiment.wall_s", "s", "lower", "pulses_per_s", "all"),
    LayerMetric("experiment.children_s", "s", "lower", "pulses_per_s", "all"),
    LayerMetric("experiment.self_s", "s", "lower", "pulses_per_s", "pump_scan"),
    LayerMetric("experiment.concurrency", "threads", "higher", "pulses_per_s", "session pump_scan"),
    LayerMetric("cli.self_s", "s", "lower", "pulses_per_s", "tag_dump"),
    LayerMetric("tracing_overhead_frac", "frac", "lower", "none: must stay small", "all"),
)


def _union(spans: list[Span]) -> float:
    """Wall time covered by at least one of the spans."""
    covered = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > end:
            covered += s.end - max(s.start, end)
            end = s.end
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], flow_calls: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the spans of `flow_calls` traced workload calls.

    Counts and seconds are per workload call; ns/pulse, us/tag and us/call
    are total span time over total work.  A flow's self time is its wall
    time minus the part its child spans cover, on any thread, so
    `experiment.self_s + experiment.children_s == experiment.wall_s`.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def per_call(value):
        return _ratio(value, flow_calls)

    def time_per(name, field, scale):
        return scale * _ratio(busy(name), sum(getattr(s, field) for s in by_name[name]))

    def us_per_call(name):
        return 1e6 * _ratio(busy(name), calls(name))

    blocks = by_name["detection.simulate_block"] + by_name["detection.simulate_block_tags"]
    flows = [s for name in FLOWS for s in by_name[name]]
    flow_wall = sum(f.duration for f in flows)
    flow_children = sum(_union(children[f.id]) for f in flows)
    flow_busy = sum(c.duration for f in flows for c in children[f.id])
    cli_self = sum(s.duration - _union(children[s.id]) for s in by_name["cli.main"])

    values = {
        "detection.simulate_block.ns_per_pulse": time_per("detection.simulate_block", "pulses", 1e9),
        "detection.simulate_block.calls": per_call(calls("detection.simulate_block")),
        "detection.simulate_block_tags.ns_per_pulse": time_per(
            "detection.simulate_block_tags", "pulses", 1e9
        ),
        "detection.clicks_per_pulse": _ratio(
            sum(s.events for s in blocks), sum(s.pulses for s in blocks)
        ),
        "detection.write_pulse_ledger.ns_per_pulse": time_per(
            "detection.write_pulse_ledger", "pulses", 1e9
        ),
        "detection.read_pulse_ledger.ns_per_pulse": time_per(
            "detection.read_pulse_ledger", "pulses", 1e9
        ),
        "detection.write_time_tags.us_per_tag": time_per("detection.write_time_tags", "tags", 1e6),
        "detection.read_time_tags.us_per_tag": time_per("detection.read_time_tags", "tags", 1e6),
        "detection.accumulate.us_per_tag": time_per("detection.accumulate", "tags", 1e6),
        "detection.tags": per_call(sum(s.tags for s in by_name["detection.write_time_tags"])),
        "switch.apply_switch_both_bins.us_per_call": us_per_call("switch.apply_switch_both_bins"),
        "switch.apply_switch_both_bins.calls": per_call(calls("switch.apply_switch_both_bins")),
        "source.derived_rng.us_per_call": us_per_call("source.derived_rng"),
        "source.derived_rng.calls": per_call(calls("source.derived_rng")),
        "analysis.secret_key_rate.us_per_call": us_per_call("analysis.secret_key_rate"),
        "analysis.conditional_probabilities.calls": per_call(
            calls("analysis.conditional_probabilities")
        ),
        "experiment.wall_s": per_call(flow_wall),
        "experiment.children_s": per_call(flow_children),
        "experiment.self_s": per_call(flow_wall - flow_children),
        "experiment.concurrency": _ratio(flow_busy, flow_wall),
        "cli.self_s": per_call(cli_self),
        "tracing_overhead_frac": overhead_frac,
    }
    assert list(values) == [m.name for m in LAYER_METRICS]
    return values
