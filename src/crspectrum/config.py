"""Simulation configuration: defaults per scenario and a flat file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Every field of SimConfig is addressable by its name; unknown keys are a
hard error so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .fusion import MAX_STATE_BITS

SCENARIOS = ("prediction", "fusion", "recommendation", "decision-1", "decision-2")
# the scenarios that run the slot engine
ACCESS_SCENARIOS = ("recommendation", "decision-1", "decision-2")
# input windows of the prediction scenario's ELM sweep
SWEEP_WINDOWS = (2, 4, 6, 8, 10, 12, 14)


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration."""


@dataclass
class SimConfig:
    """Every knob of the simulator, flat so files and CLI can address them."""

    scenario: str = "prediction"
    n_su: int = 30             # secondary users
    n_channels: int = 10       # licensed channels
    n_slots: int = 1000        # simulated slots per run
    k: int = 3                 # transmission length, slots
    t: int = 3                 # request period, slots (burst mode); keep K <= t
    k_min: int = 3             # K sweep bounds for the decision scenarios
    k_max: int = 10
    window: int = 10           # predictor input size
    elm_hidden: int = 30
    bp_hidden: int = 50
    bp_lr: float = 0.2
    bp_epochs: int = 200
    bp_goal: float = 1e-4
    lam: float = 0.5           # prediction threshold
    score_window: int = 10     # recent slots feeding channel scores
    th_mode: str = "half_max"  # recommendation threshold rule: half_max | fixed
    th_value: float = 0.0      # threshold when th_mode = fixed
    alpha: float = 0.5
    gamma: float = 0.5
    epsilon: float = 0.1
    r_p: float = 1.0           # fusion reward on a correct fused call
    r_n: float = -1.0          # fusion penalty on a wrong fused call
    error_rates: tuple = (0.1, 0.15, 0.2)  # fusion local predictor error rates
    mean_holding: float = 10.0        # busy-period mean when no range is set
    mean_interarrival: float = 10.0   # idle-gap mean when no range is set
    holding_range: Optional[tuple] = None        # per-channel draw [lo, hi]
    interarrival_range: Optional[tuple] = None
    last_channel_idle: bool = False
    request_prob: float = 0.06  # per-slot request probability of an idle SU
    burst_requests: bool = False  # all idle SUs request every t slots instead
    warmup_slots: int = 100
    arena_side: float = 40.0
    comm_radius: float = 5.0
    seed: int = 0
    reps: int = 1


_SCENARIO_DEFAULTS = {
    "prediction": dict(n_su=1, n_channels=1, n_slots=10000),
    "fusion": dict(n_su=3, n_channels=1, n_slots=10000),
    "recommendation": dict(
        n_su=10, n_channels=5, n_slots=1000, k=3, t=3,
        holding_range=(1.0, 10.0), interarrival_range=(10.0, 20.0),
        last_channel_idle=True, request_prob=0.06, score_window=100, reps=10,
    ),
    "decision-1": dict(
        n_su=30, n_channels=10, n_slots=1000,
        holding_range=(1.0, 10.0), interarrival_range=(10.0, 20.0),
        last_channel_idle=True, request_prob=0.1, epsilon=0.0, reps=5,
    ),
}
# decision-2 adds user geometry, whose defaults are SimConfig's own
_SCENARIO_DEFAULTS["decision-2"] = _SCENARIO_DEFAULTS["decision-1"]


def default_config(scenario: str) -> SimConfig:
    """Scenario-appropriate defaults; overrides come from file or CLI."""
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}"
        )
    return replace(SimConfig(scenario=scenario), **_SCENARIO_DEFAULTS[scenario])


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _parse_tuple(raw: str) -> Optional[tuple]:
    if raw.lower() in ("none", ""):
        return None
    return tuple(float(part) for part in raw.split(","))


# one parser per SimConfig annotation (strings, under postponed evaluation);
# a field whose annotation is missing here fails at import
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str,
            "tuple": _parse_tuple, "Optional[tuple]": _parse_tuple}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(SimConfig)}


def _parse_pairs(text: str) -> dict:
    """Typed values of the ``key = value`` lines; a repeated key keeps its last."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _FIELD_PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r}: {exc}") from None
    return updates


def validate_config(cfg: SimConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    # nan compares false, so it slips past checks such as mean_holding < 1
    # below, and inf reaches the trace draws: reject both, by key
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, float) and not math.isfinite(part):
                raise ConfigError(f"{f.name} must be finite, got {part!r}")
    for name in ("n_su", "n_channels", "n_slots", "k", "t", "k_min", "k_max",
                 "window", "elm_hidden", "bp_hidden", "bp_epochs",
                 "score_window", "reps"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be a positive count")
    if cfg.warmup_slots < 0:
        raise ConfigError("warmup_slots must be >= 0")
    if cfg.k_min > cfg.k_max:
        raise ConfigError("k_min must not exceed k_max")
    if cfg.burst_requests and cfg.scenario in ACCESS_SCENARIOS:
        # t is read only in burst mode: every hold ends before the next burst
        name = "k" if cfg.scenario == "recommendation" else "k_max"
        if getattr(cfg, name) > cfg.t:
            raise ConfigError(
                f"{name} ({getattr(cfg, name)}) must not exceed t ({cfg.t}) "
                "with burst_requests"
            )
    if not 1 <= cfg.n_channels <= MAX_STATE_BITS:
        raise ConfigError(
            f"n_channels must be in [1, {MAX_STATE_BITS}] to keep 2^M tabulable"
        )
    if not 0 < cfg.alpha <= 1:
        raise ConfigError("alpha must be in (0, 1]")
    if not 0 <= cfg.gamma < 1:
        raise ConfigError("gamma must be in [0, 1)")
    if not 0 <= cfg.epsilon <= 1:
        raise ConfigError("epsilon must be in [0, 1]")
    if not 0 <= cfg.request_prob <= 1:
        raise ConfigError("request_prob must be in [0, 1]")
    if cfg.bp_lr <= 0:
        raise ConfigError("bp_lr must be positive")
    if cfg.bp_goal <= 0:
        raise ConfigError("bp_goal must be positive")
    if cfg.error_rates is None:
        raise ConfigError("error_rates must list at least one rate")
    if any(not 0 <= e <= 1 for e in cfg.error_rates):
        raise ConfigError("error_rates must lie in [0, 1]")
    if cfg.scenario not in ACCESS_SCENARIOS and cfg.n_channels != 1:
        # the benchmarks read one channel's trace
        raise ConfigError(
            f"{cfg.scenario} runs on one channel, got n_channels = {cfg.n_channels}"
        )
    half = cfg.n_slots // 2  # the benchmarks train on the first half
    if cfg.scenario == "fusion":
        if not 1 <= len(cfg.error_rates) <= MAX_STATE_BITS:
            raise ConfigError(
                f"fusion needs 1 to {MAX_STATE_BITS} error_rates to keep its "
                "state space tabulable"
            )
        if cfg.n_su != len(cfg.error_rates):  # one local predictor per user
            raise ConfigError(
                f"fusion runs one user per error rate: n_su = {cfg.n_su} but "
                f"{len(cfg.error_rates)} error_rates"
            )
        if half < max(cfg.window, 2):  # the HMM fits on two slots or more
            raise ConfigError(
                f"fusion needs n_slots // 2 >= max(window, 2) = "
                f"{max(cfg.window, 2)}, got {half}"
            )
    if cfg.scenario == "prediction":
        longest = max(cfg.window, *SWEEP_WINDOWS)
        if half <= longest:
            raise ConfigError(
                f"prediction needs n_slots // 2 > {longest} (window and the "
                f"input-window sweep), got {half}"
            )
    if cfg.th_mode not in ("half_max", "fixed"):
        raise ConfigError("th_mode must be half_max or fixed")
    for name in ("holding_range", "interarrival_range"):
        rng = getattr(cfg, name)
        if rng is not None:
            if len(rng) != 2 or rng[0] > rng[1]:
                raise ConfigError(f"{name} must be lo,hi with lo <= hi")
            if rng[0] < 1.0:
                raise ConfigError(f"{name} values must be >= 1 slot")
    if cfg.holding_range is None and cfg.mean_holding < 1.0:
        raise ConfigError("mean_holding must be >= 1 slot")
    if cfg.interarrival_range is None and cfg.mean_interarrival < 1.0:
        raise ConfigError("mean_interarrival must be >= 1 slot")
    if cfg.arena_side <= 0 or cfg.comm_radius <= 0:
        raise ConfigError("arena_side and comm_radius must be positive")
    if cfg.seed < 0 or cfg.seed > 0xFFFFFFFFFFFFFFFF:
        raise ConfigError("seed must fit in 64 unsigned bits")
