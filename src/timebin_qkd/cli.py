"""Command-line front end.

Verbs mirror the library flows: session, sweep-loss, pump-scan, stability,
analyze.  Every verb takes --out/--format, and the four simulation verbs
also take --config/--set/--seed; results go to stdout as JSON unless
redirected or asked for as CSV.  A size flag reaches its flow only when
given, so the flows own every default size.  Errors print a one-line JSON
object {"category", "message"} on stderr and map to stable exit codes:
2 config, 3 bad input, 4 I/O, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

from .errors import ConfigError, InvalidInputError
from .experiment import (
    MAX_VALUES,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
    matrix_payload,
    read_counts_json,
    report_csv,
    report_payload,
    run_loss_sweep,
    run_pump_delay_scan,
    run_session,
    run_stability,
    scan_csv,
    scan_payload,
    stability_csv,
    stability_payload,
    sweep_csv,
    sweep_payload,
    write_counts_json,
)
from .analysis import secret_key_rate
from .detection import write_pulse_ledger, write_time_tags


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_simulation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file (defaults apply if omitted)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one configuration value; repeatable",
    )
    p.add_argument("--seed", type=int, help="master seed override")
    _add_output(p)


def _add_size(p: argparse.ArgumentParser, flag: str, kind: type, help: str) -> None:
    # absent from the namespace unless given, so the flow's default applies
    p.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=f"{help} (default: the flow's)")


def _sizes(args, *names: str) -> dict:
    """The size flags among `names` that were given, as the flow's keywords."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebin-qkd",
        description="Simulate and analyze a time-bin decoy-state key distribution link.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("session", help="run all four settings, report the key rate")
    _add_simulation(p)
    _add_size(p, "--pulses", int, "pulses per setting")
    p.add_argument("--save-counts", metavar="PATH", help="also write the raw counts JSON")
    p.add_argument(
        "--dump-tags",
        metavar="PATH",
        help="also write time tags to PATH and the pulse ledger to PATH.ledger",
    )

    p = sub.add_parser("sweep-loss", help="key rate against channel loss")
    _add_simulation(p)
    _add_size(p, "--pulses", int, "pulses per setting per point")
    p.add_argument(
        "--losses",
        required=True,
        help="channel losses in dB: comma list and/or start:stop:step ranges",
    )

    p = sub.add_parser("pump-scan", help="slot fidelities against pump delay")
    _add_simulation(p)
    p.add_argument(
        "--delays",
        required=True,
        help="pump delays in ps: comma list and/or start:stop:step ranges",
    )
    _add_size(p, "--pulses-per-point", int, "pulses per time-basis setting per delay")

    p = sub.add_parser("stability", help="long session on a drifting setup")
    _add_simulation(p)
    _add_size(p, "--hours", float, "length of the run in hours")
    _add_size(p, "--samples-per-hour", int, "samples per hour")
    _add_size(p, "--pulses-per-sample", int, "pulses per setting per sample")

    p = sub.add_parser("analyze", help="key-rate report from a saved counts file")
    _add_output(p)
    p.add_argument("--counts", required=True, help="counts JSON written by session --save-counts")

    return parser


def _config(args) -> ExperimentConfig:
    """The config file (or the defaults), then --set and --seed."""
    base = load_config(args.config) if args.config else ExperimentConfig()
    payload = apply_overrides(config_to_dict(base), args.set)
    if args.seed is not None:
        payload["seed"] = args.seed
    return config_from_dict(payload)


def _parse_values(text: str, what: str) -> list[float]:
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            numbers = [float(x) for x in token.split(":")]
        except ValueError as e:
            raise InvalidInputError(f"cannot parse {what} token {token!r}") from e
        if len(numbers) == 1:
            out.append(numbers[0])
            continue
        if len(numbers) != 3:
            raise InvalidInputError(f"cannot parse {what} token {token!r}")
        a, b, s = numbers
        if not (math.isfinite(s) and s > 0):
            raise InvalidInputError(f"{what} range step must be positive")
        steps = (b - a) / s + 1e-9
        if not math.isfinite(steps):
            raise InvalidInputError(f"{what} range {token!r} is not finite")
        if steps < 0:
            raise InvalidInputError(f"empty {what} range {token!r}")
        # count before allocating: a tiny step must not build a huge list
        count = math.floor(steps) + 1
        if len(out) + count > MAX_VALUES:
            raise InvalidInputError(f"{what} values exceed the limit of {MAX_VALUES}")
        out.extend(a + i * s for i in range(count))
    if not out:
        raise InvalidInputError(f"no {what} values given")
    return out


def _emit(args, payload: dict, csv_text: str) -> None:
    text = json.dumps(payload, indent=2) + "\n" if args.format == "json" else csv_text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


@contextmanager
def _replaced_on_success(path: str):
    """A binary file at a sibling temp name, moved to `path` when the with-body returns.

    If the body raises, the temp file is removed instead, so a failed run
    leaves no partial file at `path`.  The file is open for reading and
    not in append mode, since the ledger writer reads its one summary
    record before it appends and then rewrites that record in place.
    """
    tmp = f"{path}.partial"
    try:
        with open(tmp, "w+b") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cmd_session(args) -> int:
    cfg = _config(args)
    sizes = _sizes(args, "pulses")
    if not args.dump_tags:
        res = run_session(cfg, **sizes)
    else:
        # each block's tags and ledger are appended as the run reduces it
        with _replaced_on_success(args.dump_tags) as tag_file, _replaced_on_success(
            args.dump_tags + ".ledger"
        ) as ledger_file:

            def sink(tags, ledger) -> None:
                write_time_tags(tag_file, tags)
                write_pulse_ledger(ledger_file, ledger)

            res = run_session(cfg, **sizes, sink=sink)
    if args.save_counts:
        write_counts_json(args.save_counts, res.counts, cfg.source)
    payload = report_payload(res.report)
    payload["matrix"] = None if res.matrix is None else matrix_payload(res.matrix)
    _emit(args, payload, report_csv(res.report))
    return 0


def _cmd_sweep_loss(args) -> int:
    cfg = _config(args)
    losses = _parse_values(args.losses, "loss")
    res = run_loss_sweep(cfg, losses, **_sizes(args, "pulses"))
    _emit(args, sweep_payload(res), sweep_csv(res))
    return 0


def _cmd_pump_scan(args) -> int:
    cfg = _config(args)
    delays = _parse_values(args.delays, "delay")
    res = run_pump_delay_scan(cfg, delays, **_sizes(args, "pulses_per_point"))
    _emit(args, scan_payload(res), scan_csv(res))
    return 0


def _cmd_stability(args) -> int:
    cfg = _config(args)
    res = run_stability(cfg, **_sizes(args, "hours", "samples_per_hour", "pulses_per_sample"))
    _emit(args, stability_payload(res), stability_csv(res))
    return 0


def _cmd_analyze(args) -> int:
    counts, source = read_counts_json(args.counts)
    report = secret_key_rate(counts, source)
    _emit(args, report_payload(report), report_csv(report))
    return 0


_COMMANDS = {
    "session": _cmd_session,
    "sweep-loss": _cmd_sweep_loss,
    "pump-scan": _cmd_pump_scan,
    "stability": _cmd_stability,
    "analyze": _cmd_analyze,
}


def _fail(category: str, exc: BaseException, code: int) -> int:
    sys.stderr.write(json.dumps({"category": category, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as e:
        return _fail("config", e, 2)
    except InvalidInputError as e:
        return _fail("input", e, 3)
    except OSError as e:
        return _fail("io", e, 4)
    except Exception as e:  # pragma: no cover - safety net
        return _fail("internal", e, 1)


if __name__ == "__main__":
    sys.exit(main())
