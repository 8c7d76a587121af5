"""Command-line front end: configure one scenario, run it, write outputs.

Exit codes: 0 on success, 2 on a configuration problem (bad flag value,
unparseable or unknown config key, non-finite number, invalid combination,
config file not UTF-8 text), 3 when reading the config file or writing
outputs fails at the filesystem level.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import (
    ConfigError,
    SimConfig,
    _parse_pairs,
    default_config,
    parse_config_text,
    validate_config,
)
from .harness import emit_outputs, run_scenario

# CLI spellings; internal names keep the scenario number separated
_SCENARIO_FLAGS = {
    "prediction": "prediction",
    "fusion": "fusion",
    "recommendation": "recommendation",
    "decision1": "decision-1",
    "decision2": "decision-2",
}

_FORMATS = ("json", "csv", "svg")


def _build_config(args, config_text) -> SimConfig:
    cli_scenario = _SCENARIO_FLAGS[args.scenario] if args.scenario else None
    scenario = cli_scenario
    if scenario is None and config_text is not None:
        # the scenario picks the defaults the file's other keys override
        scenario = _parse_pairs(config_text).get("scenario")
    if scenario is None:
        raise ConfigError(
            "no scenario given; pass --scenario or put scenario = ... in the config file"
        )
    cfg = default_config(scenario)
    if config_text is not None:
        cfg = parse_config_text(config_text, cfg)
        if cli_scenario is not None and cfg.scenario != cli_scenario:
            raise ConfigError(
                f"--scenario {args.scenario} conflicts with scenario = {cfg.scenario} "
                "in the config file"
            )
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.reps is not None:
        overrides["reps"] = args.reps
    if overrides:
        cfg = replace(cfg, **overrides)
        validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a spectrum-access scenario and write JSON/CSV/SVG outputs.",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(_SCENARIO_FLAGS),
        help="which experiment to run (may also come from the config file)",
    )
    parser.add_argument("--config", help="key = value config file, # comments allowed")
    parser.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--format",
        default="json,csv",
        help="comma-separated output formats from json,csv,svg (default: json,csv)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also write per-decision events.jsonl for access scenarios",
    )
    args = parser.parse_args(argv)

    formats = [tok.strip() for tok in args.format.split(",") if tok.strip()]
    try:
        if not formats:
            raise ConfigError("--format must name at least one of json,csv,svg")
        unknown = sorted(set(formats) - set(_FORMATS))
        if unknown:
            raise ConfigError(
                f"unknown output formats {unknown}; expected a subset of json,csv,svg"
            )
        config_text = None
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    config_text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc}")
        cfg = _build_config(args, config_text)
        summary = run_scenario(cfg, collect_events=args.verbose)
        written = emit_outputs(summary, formats, args.out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"simulate: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"simulate: i/o error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
