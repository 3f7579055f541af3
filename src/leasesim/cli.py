"""Command-line interface.

Subcommands: run, sweep, compare, intent, assure, oracle. Exit codes are
0 (success), 1 (usage or configuration error), and 2 (assurance verdict
fail); nothing else is ever returned.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from ._version import VERSION
from .core import ConfigError, record_dict
from .environment import ScenarioConfig, scenario_from_dict, with_seed
from .intent import (
    PACKET_SIZE_MB,
    SLOT_DURATION_S,
    assure,
    derive_scenario,
    intent_from_dict,
    report_to_dict,
    translate_intent,
    translation_from_dict,
    translator_settings,
)
from .policies import parse_policy, policy_label
from .reporting import (
    comparison_ranking,
    compare,
    json_text,
    read_realization_csv,
    read_trace_csv,
    report_header,
    summarize,  # unused here; perfbench's tracer wraps cli.summarize
    sweep,
    sweep_to_dict,
    write_comparison_series_csv,
    write_json,
    write_summary_json,
    write_sweep_csv,
    write_trace_csv,
)
from .simulator import default_params, offline_min_cost, run

DEFAULT_V_GRID = "1,2,5,10,20,50"
DEFAULT_EPS_GRID = "0.5,1,2"
DEFAULT_COMPARE_POLICIES = "dsf,greedy,periodic:2,price_only:8,queue_threshold:10,myopic"


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a token reading as a number for a
    value, so `--v -1e3` reaches the field check instead of being taken
    for a flag."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _parse_list(text: str, flag: str, parse, key=lambda value: value) -> list:
    """The entries of the comma list `text`, each parsed by `parse`.

    An empty entry, or one whose key equals an earlier entry's, is a
    ConfigError naming the flag and the entry: a repeat would run twice
    under one name.
    """
    values, seen = [], {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"{flag}: empty entry in list {text!r}")
        value = parse(part)
        name = key(value)
        if name in seen:
            raise ConfigError(f"{flag}: {part!r} repeats the earlier entry {seen[name]!r} in list {text!r}")
        seen[name] = part
        values.append(value)
    return values


def _parse_float_list(text: str, flag: str) -> list[float]:
    def parse(part: str) -> float:
        try:
            return float(part)
        except ValueError:
            raise ConfigError(f"{flag}: {part!r} is not a number") from None

    return _parse_list(text, flag, parse)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to read
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _load_scenario(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return scenario_from_dict(_load_json(path))


def _output_path(text: str) -> str:
    """An output flag's value: any path but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


# the argparse names of the flags that name a file a command reads
_INPUT_FLAGS = ("scenario", "file", "trace", "intent", "translation", "realization")


def _file_key(path: str | Path) -> tuple[int, int] | str:
    """What names the file at `path`: (st_dev, st_ino), the pair
    os.path.samefile compares, where it exists, so every link to one file
    has one key; its realpath where it does not exist yet."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _check_outputs(args, *outputs: tuple[str, str | Path | None]) -> None:
    """Fail before the first write when an output path is an existing
    directory, has no directory to go in, names a file the command reads
    (`args`' _INPUT_FLAGS) or names the same file as an earlier output, so
    a command that writes two files leaves neither and no input is
    overwritten. Each output comes with its flag; None stands for an
    output not asked for. Paths are compared by _file_key."""
    inputs = {_file_key(path): flag for flag in _INPUT_FLAGS if (path := getattr(args, flag, None))}
    seen = {}
    for flag, path in outputs:
        if not path:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"{path}: is a directory, expected a file path")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            problem = "is not a directory" if os.path.lexists(parent) else "does not exist"
            raise ConfigError(f"{path}: parent directory {parent} {problem}")
        key = _file_key(path)
        if key in inputs:
            raise ConfigError(
                f"{path}: {flag} would overwrite the input of --{inputs[key]}, expected an output that is not an input"
            )
        if key in seen:
            raise ConfigError(f"{path}: names the same file as {seen[key]}, expected one file per output")
        seen[key] = path


def _check_output_dir(out_dir: Path) -> None:
    """Fail before any work when `out_dir`, or the nearest of its ancestors
    that exists, is not a directory, so the directory cannot be made."""
    for path in (out_dir, *out_dir.parents):
        if os.path.lexists(path):
            if not path.is_dir():
                holding = "" if path == out_dir else f" to hold {out_dir}"
                raise ConfigError(f"{path}: is not a directory, expected a directory path{holding}")
            return


def _sibling_path(out: str, suffix: str, sibling_suffix: str) -> str:
    """The path of the file written beside `out`: `out` with `suffix`
    replaced by `sibling_suffix`, or with it appended when `out` lacks
    `suffix` (run: t.csv -> t.summary.json; sweep: s.json -> s.csv)."""
    stem = out[: -len(suffix)] if out.endswith(suffix) else out
    return stem + sibling_suffix


def cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    policy = parse_policy(args.policy)
    params = default_params(scenario, v=args.v, eps_d=args.eps)
    summary_path = _sibling_path(args.out, ".csv", ".summary.json")
    _check_outputs(args, ("--out", summary_path), ("--out", args.out))
    trace = run(scenario, policy, params)
    # the summary first: a value JSON cannot hold then leaves no file behind
    summary = write_summary_json(trace, summary_path)
    write_trace_csv(trace, args.out)
    print(
        f"wrote {args.out} and {summary_path}: "
        f"cost={summary.accumulated_cost:.2f} "
        f"avg_queue={summary.average_queue:.3f} "
        f"leases={summary.lease_count}"
    )
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args.scenario)
    policy = parse_policy(args.policy)
    v_grid = _parse_float_list(args.v, "--v")
    eps_grid = _parse_float_list(args.eps, "--eps")
    csv_path = _sibling_path(args.out, ".json", ".csv")
    _check_outputs(args, ("--out", args.out), ("--out", csv_path))
    table = sweep(scenario, policy, v_grid, eps_grid, common_random_numbers=args.crn)
    write_json(sweep_to_dict(table, scenario), args.out)
    write_sweep_csv(table, csv_path)
    print(f"wrote {args.out} and {csv_path}: {len(table.rows)} cells")
    return 0


def cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    policies = _parse_list(args.policies, "--policies", parse_policy, policy_label)
    params = default_params(scenario, v=args.v, eps_d=args.eps)
    out_dir = Path(args.out)
    _check_output_dir(out_dir)
    series_path = out_dir / "series.csv"
    ranking_path = out_dir / "ranking.json"
    if out_dir.is_dir():  # in a directory still to be made, neither file exists
        _check_outputs(args, ("--out", ranking_path), ("--out", series_path))
    results = compare(scenario, policies, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranking = comparison_ranking(results)
    # the ranking first: a value JSON cannot hold then leaves no file behind
    write_json(
        {"header": report_header(scenario, params=params), "ranking": ranking},
        ranking_path,
    )
    write_comparison_series_csv(results, series_path)
    print(f"wrote {series_path} and {ranking_path}")
    for entry in ranking:
        print(
            f"  {entry['rank']}. {entry['policy']}: "
            f"accumulated_cost={entry['summary']['accumulated_cost']:.2f}"
        )
    return 0


def cmd_intent(args) -> int:
    intent = intent_from_dict(_load_json(args.file))
    scenario = _load_scenario(args.scenario)
    translation = translate_intent(
        intent,
        scenario,
        slot_duration_s=args.slot_duration,
        packet_size_mb=args.packet_size,
    )
    document = {
        "header": {**report_header(scenario), "translator": translator_settings(args.slot_duration, args.packet_size)},
        "intent": record_dict(intent),
        "translation": record_dict(translation),
    }
    # both texts before the first write: a derivation or a value JSON
    # cannot hold then leaves no file behind and prints nothing
    text = json_text(document, args.out or "stdout")
    if args.scenario_out:
        derived = derive_scenario(translation, scenario, streaming=args.streaming)
        derived_text = json_text(record_dict(derived), args.scenario_out)
    _check_outputs(args, ("--out", args.out), ("--scenario-out", args.scenario_out))
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"wrote {args.out}: v={translation.params.v:.2f} "
            f"eps_d={translation.params.eps_d:g} "
            f"n_packets={translation.n_packets} "
            f"deadline_slots={translation.deadline_slots} "
            f"feasible={translation.feasible}"
        )
    else:
        sys.stdout.write(text)
    if args.scenario_out:
        Path(args.scenario_out).write_text(derived_text)
        # stdout must stay parseable JSON when the translation went there
        print(f"wrote {args.scenario_out}", file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_assure(args) -> int:
    _check_outputs(args, ("--out", args.out))
    trace = read_trace_csv(args.trace)
    intent = intent_from_dict(_load_json(args.intent))
    translation_doc = _load_json(args.translation)
    if isinstance(translation_doc, dict) and "translation" in translation_doc:
        translation_doc = translation_doc["translation"]
    translation = translation_from_dict(translation_doc)
    report = assure(trace, intent, translation)
    print(
        f"verdict: {report.verdict} "
        f"(delivered {report.delivered_packets} of required {report.required_packets} "
        f"within {translation.deadline_slots} slots)"
    )
    for slot, message in report.drift_warnings:
        print(f"  drift warning at slot {slot}: {message}")
    if args.out:
        write_json(
            {
                "header": report_header(),
                "intent": record_dict(intent),
                "translation": record_dict(translation),
                "report": report_to_dict(report),
            },
            args.out,
        )
        print(f"wrote {args.out}")
    return 0 if report.verdict == "pass" else 2


def cmd_oracle(args) -> int:
    _check_outputs(args, ("--out", args.out))
    realization = read_realization_csv(args.realization)
    min_cost, decisions, feasible = offline_min_cost(
        realization, args.initial_backlog, args.deadline
    )
    if feasible:
        schedule = "".join(str(d) for d in decisions)
        print(f"min cost {min_cost:g}, lease schedule {schedule}")
    else:
        print(
            f"infeasible: backlog {args.initial_backlog} cannot be cleared "
            f"within {args.deadline} slots"
        )
    if args.out:
        write_json(
            {
                "header": report_header(),
                "initial_backlog": args.initial_backlog,
                "deadline": args.deadline,
                "feasible": feasible,
                "min_cost": min_cost if feasible else None,
                "decisions": decisions,
            },
            args.out,
        )
        print(f"wrote {args.out}")
    return 0


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON (defaults used when omitted)")
    p.add_argument("--policy", default="dsf", help="policy string: name or name:param")
    p.add_argument("--v", type=float, default=10.0, help="cost weight (default 10)")
    p.add_argument("--eps", type=float, default=1.0, help="deferral weight (default 1)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", type=_output_path, default="trace.csv", help="trace CSV path (default trace.csv)")


def _sweep_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON (defaults used when omitted)")
    p.add_argument("--policy", default="dsf", help="policy string")
    p.add_argument("--v", default=DEFAULT_V_GRID, help=f"comma list (default {DEFAULT_V_GRID})")
    p.add_argument(
        "--eps", default=DEFAULT_EPS_GRID, help=f"comma list (default {DEFAULT_EPS_GRID})"
    )
    p.add_argument(
        "--crn",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share one realization across cells (default on)",
    )
    p.add_argument("--out", type=_output_path, default="sweep.json", help="table JSON path (default sweep.json)")


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario JSON (defaults used when omitted)")
    p.add_argument(
        "--policies",
        default=DEFAULT_COMPARE_POLICIES,
        help=f"comma list of policy strings (default {DEFAULT_COMPARE_POLICIES})",
    )
    p.add_argument("--v", type=float, default=10.0, help="cost weight (default 10)")
    p.add_argument("--eps", type=float, default=1.0, help="deferral weight (default 1)")
    p.add_argument("--out", type=_output_path, default="compare", help="output directory (default compare/)")


def _intent_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", required=True, help="intent JSON path")
    p.add_argument("--scenario", help="scenario JSON (defaults used when omitted)")
    p.add_argument(
        "--slot-duration", type=float, default=SLOT_DURATION_S, help="seconds per slot (default 1)"
    )
    p.add_argument(
        "--packet-size", type=float, default=PACKET_SIZE_MB, help="MB per packet (default 10)"
    )
    p.add_argument("--out", type=_output_path, help="translation JSON path (stdout when omitted)")
    p.add_argument("--scenario-out", type=_output_path, help="also write the derived scenario JSON here")
    p.add_argument(
        "--streaming",
        action="store_true",
        help="derive a streaming scenario (spread arrivals) instead of bulk backlog",
    )


def _assure_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--intent", required=True, help="intent JSON path")
    p.add_argument(
        "--translation", required=True, help="translation JSON (as written by the intent command)"
    )
    p.add_argument("--out", type=_output_path, help="assurance report JSON path")


def _oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--realization", required=True, help="CSV with arrival/price/availability columns"
    )
    p.add_argument("--initial-backlog", type=int, required=True, help="packets at slot 1")
    p.add_argument("--deadline", type=int, required=True, help="slots to clear by")
    p.add_argument("--out", type=_output_path, help="result JSON path")


# name: (help line, arguments, handler), in the order --help lists them
SUBCOMMANDS = {
    "run": ("simulate one policy, write trace CSV + summary JSON", _run_arguments, cmd_run),
    "sweep": ("grid of (v, eps) cells, JSON + long CSV", _sweep_arguments, cmd_sweep),
    "compare": ("policies on a common realization", _compare_arguments, cmd_compare),
    "intent": ("translate an intent JSON into control params", _intent_arguments, cmd_intent),
    "assure": ("verify a trace against an intent", _assure_arguments, cmd_assure),
    "oracle": ("offline minimum-cost schedule", _oracle_arguments, cmd_oracle),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with `command` naming a subcommand, one that
    holds only that subcommand's parser.

    Building all six subparsers costs about three times what one does, and
    a call runs one. A subcommand's own help, usage and errors come from
    its subparser and the top-level usage never lists the choices, so the
    one-subcommand parser prints the same bytes for them. Any other
    `command` (None, a flag, an unknown name) builds the full parser, whose
    help lists every subcommand and whose errors name every choice.
    """
    parser = _Parser(
        prog="leasesim",
        description="Cost- and delay-aware leasing simulator for RIS and spectrum resources.",
    )
    parser.add_argument("--version", action="version", version=f"leasesim {VERSION}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in [command] if command in SUBCOMMANDS else SUBCOMMANDS:
        help_line, add_arguments, handler = SUBCOMMANDS[name]
        subparser = subparsers.add_parser(name, help=help_line)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help/--version exit 0; a usage error's 2 is assure's fail code, so 1 here
        code = exc.code
        return 0 if code in (None, 0) else 1
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The console script: main() on sys.argv, each warning printed as one
    line, "warning: <message>", as an error is, with no source line."""
    warnings.formatwarning = lambda message, *args, **kwargs: f"warning: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entry()
