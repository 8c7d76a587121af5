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
from pathlib import Path

from .config import (
    SCENARIOS,
    ConfigError,
    SimConfig,
    _parse_pairs,
    default_config,
    validate_config,
)
from .harness import OUTPUT_FORMATS, emit_outputs, run_scenario

# CLI spellings drop the dash that keeps the scenario number separated
_SCENARIO_FLAGS = {name.replace("-", ""): name for name in SCENARIOS}

_FORMAT_LIST = ",".join(OUTPUT_FORMATS)


def _build_config(args) -> SimConfig:
    """Scenario defaults, then the file, then --seed/--reps; validated once."""
    pairs = {}
    if args.config is not None:
        try:
            pairs = _parse_pairs(Path(args.config).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc}")
    scenario = pairs.get("scenario")
    if args.scenario is not None:
        flag = _SCENARIO_FLAGS[args.scenario]
        if scenario not in (None, flag):
            raise ConfigError(
                f"--scenario {args.scenario} conflicts with scenario = {scenario} "
                "in the config file"
            )
        scenario = flag
    if scenario is None:
        raise ConfigError(
            "no scenario given; pass --scenario or put scenario = ... in the config file"
        )
    for name in ("seed", "reps"):
        if getattr(args, name) is not None:
            pairs[name] = getattr(args, name)
    # the scenario picks the defaults the file's other keys override
    cfg = replace(default_config(scenario), **pairs)
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
        help=f"comma-separated output formats from {_FORMAT_LIST} (default: json,csv)",
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
            raise ConfigError(f"--format must name at least one of {_FORMAT_LIST}")
        unknown = sorted(set(formats) - set(OUTPUT_FORMATS))
        if unknown:
            raise ConfigError(
                f"unknown output formats {unknown}; expected a subset of {_FORMAT_LIST}"
            )
        cfg = _build_config(args)
        summary = run_scenario(cfg, collect_events=args.verbose)
        written = emit_outputs(summary, formats, args.out)
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
