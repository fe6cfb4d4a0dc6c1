"""Run configuration: a flat key = value text file mirroring RunConfig.

Each field is one independent setting; a setting with one value in use is
a constant of the module that reads it instead. Every field but `out_dir`
is a key of the file: the run directory is where a run's config.txt lies,
not a value in it, so a copied or moved run writes into its own directory.
Unknown (`out_dir` among them) or repeated keys and malformed or
out-of-range values are configuration errors (CLI exit code 2), found when
the file is loaded rather than by the stage that would fail on them; the
message names the key. Every float must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

ENCODER_BACKENDS = ("oracle", "oracle-pose", "learned")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    encoder_backend: str = "oracle"
    # latent space
    epsilon: float = 1e-3
    # low-level model
    low_epochs: int = 300
    # edge policies
    lr_policy: float = 1e-3
    max_segments_per_edge: int = 4
    # plan search
    p_min: float = 1e-3
    eta: float = 0.01
    depth_limit: int = 64

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")
        if self.encoder_backend not in ENCODER_BACKENDS:
            raise ConfigError(f"encoder_backend must be one of {ENCODER_BACKENDS}")
        for name in ("epsilon", "lr_policy"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("low_epochs", "max_segments_per_edge", "depth_limit"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not 0 <= self.p_min < 1:
            raise ConfigError("p_min must be in [0, 1)")
        if self.eta < 0:
            raise ConfigError("eta must not be negative")

    @property
    def effective_match_tol(self) -> float:
        """`epsilon`. Unread by the program, which matches hubs within the
        topology's own `epsilon`; kept because bench/workloads.py reads it."""
        return self.epsilon


# the keys of a config file: the run directory is the file's own directory
FILE_FIELDS = tuple(f for f in fields(RunConfig) if f.name != "out_dir")


def parse_config(path: str | Path) -> RunConfig:
    values: dict = {}
    first_line: dict[str, int] = {}
    types = {f.name: f.type for f in FILE_FIELDS}
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
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already given on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
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
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in FILE_FIELDS]
    Path(path).write_text("\n".join(lines) + "\n")
