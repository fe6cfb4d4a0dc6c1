"""Run configuration: a flat key = value text file mirroring RunConfig.

Unknown keys and malformed values are configuration errors (CLI exit
code 2). HUBPLAN_SEED and HUBPLAN_OUT environment variables override the
seed and output directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

ENCODER_BACKENDS = ("oracle", "learned")
PLANNER_BACKENDS = ("high-model", "bfs")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    encoder_backend: str = "oracle"
    planner_backend: str = "high-model"
    # latent space
    epsilon: float = 1e-3
    latent_dim: int = 64
    history_len: int = 75
    oracle_fields: str = "position,orientation,held,doors,barrel"
    # low-level model
    low_epochs: int = 300
    lr_low: float = 1e-4
    # hub dynamics model
    lr_high: float = 2e-4
    high_epochs: int = 150
    pretrain_traversals: int = 2000
    pretrain_max_len: int = 64
    pretrain_epochs: int = 3
    # edge policies
    lr_policy: float = 1e-3
    policy_epochs: int = 200
    p_canonical: float = 0.8
    p_truncated: float = 0.1
    p_preroll: float = 0.1
    max_perturbation: int = 3
    obs_noise: float = 0.01
    label_smoothing: float = 0.05
    max_segments_per_edge: int = 4
    # plan search
    p_min: float = 1e-3
    eta: float = 0.01
    depth_limit: int = 64
    # environment
    wrong_key_penalty: float = 0.0

    def __post_init__(self):
        if self.encoder_backend not in ENCODER_BACKENDS:
            raise ConfigError(f"encoder_backend must be one of {ENCODER_BACKENDS}")
        if self.planner_backend not in PLANNER_BACKENDS:
            raise ConfigError(f"planner_backend must be one of {PLANNER_BACKENDS}")
        for name in ("epsilon", "lr_low", "lr_high", "lr_policy"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 <= self.p_min < 1:
            raise ConfigError("p_min must be in [0, 1)")
        if abs(self.p_canonical + self.p_truncated + self.p_preroll - 1.0) > 1e-9:
            raise ConfigError("perturbation probabilities must sum to 1")

    @property
    def effective_match_tol(self) -> float:
        """Start- and arrival-matching tolerance: the hub bucket width."""
        return self.epsilon

    def oracle_field_tuple(self) -> tuple[str, ...]:
        return tuple(f.strip() for f in self.oracle_fields.split(",") if f.strip())


def apply_env_overrides(cfg: RunConfig) -> RunConfig:
    seed = os.environ.get("HUBPLAN_SEED")
    out = os.environ.get("HUBPLAN_OUT")
    if seed is not None:
        try:
            cfg.seed = int(seed)
        except ValueError as e:
            raise ConfigError(f"HUBPLAN_SEED must be an integer: {seed!r}") from e
    if out is not None:
        cfg.out_dir = out
    return cfg


def parse_config(path: str | Path) -> RunConfig:
    values: dict = {}
    types = {f.name: f.type for f in fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = casts[types[key]](value)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from e
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except TypeError as e:
        raise ConfigError(str(e)) from e


def save_config(cfg: RunConfig, path: str | Path) -> None:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n")
