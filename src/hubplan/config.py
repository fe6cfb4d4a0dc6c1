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
from dataclasses import InitVar, dataclass, fields
from pathlib import Path

from . import edge_policies
from .planning import SearchConfig

ENCODER_BACKENDS = ("oracle", "oracle-pose", "learned")


class ConfigError(ValueError):
    pass


_BENCH_SEARCH_DOC = """`planning.SearchConfig`'s default. Unread by the program; kept because
bench/workloads.py builds its SearchConfig from it, and it goes with the next
change to the benchmark."""

# the policy recipe's two constants that bench/workloads.py passes to RunConfig
_BENCH_RECIPE = {"LR_POLICY": edge_policies.LR_POLICY,
                 "MAX_SEGMENTS_PER_EDGE": edge_policies.MAX_SEGMENTS_PER_EDGE}


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    encoder_backend: str = "oracle"
    # latent space
    epsilon: float = 1e-3
    # low-level model
    low_epochs: int = 300
    # init-only, so neither fields nor keys, and any value but the constant's
    # is a ConfigError. Unread by the program; kept because bench/workloads.py
    # passes them, and they go with the next change to the benchmark.
    lr_policy: InitVar[float] = _BENCH_RECIPE["LR_POLICY"]
    max_segments_per_edge: InitVar[int] = _BENCH_RECIPE["MAX_SEGMENTS_PER_EDGE"]

    def __post_init__(self, lr_policy, max_segments_per_edge):
        for (constant, value), given in zip(_BENCH_RECIPE.items(),
                                            (lr_policy, max_segments_per_edge)):
            if given != value:
                raise ConfigError(f"the policy recipe's edge_policies.{constant} is {value}, "
                                  f"not {given}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")
        if self.encoder_backend not in ENCODER_BACKENDS:
            raise ConfigError(f"encoder_backend must be one of {ENCODER_BACKENDS}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.low_epochs < 1:
            raise ConfigError("low_epochs must be at least 1")

    @property
    def effective_match_tol(self) -> float:
        """`epsilon`. Unread by the program, which matches hubs within the
        topology's own `epsilon`; kept because bench/workloads.py reads it."""
        return self.epsilon

    # properties, so neither fields nor keys, and read-only
    p_min = property(lambda _self: SearchConfig.p_min, doc=_BENCH_SEARCH_DOC)
    eta = property(lambda _self: SearchConfig.eta, doc=_BENCH_SEARCH_DOC)
    depth_limit = property(lambda _self: SearchConfig.depth_limit, doc=_BENCH_SEARCH_DOC)


# the keys of a config file: the run directory is the file's own directory
FILE_FIELDS = tuple(f for f in fields(RunConfig) if f.name != "out_dir")


def parse_config(path: str | Path) -> RunConfig:
    values: dict = {}
    first_line: dict[str, int] = {}
    types = {f.name: f.type for f in FILE_FIELDS}
    casts = {"int": int, "float": float, "str": str}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
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
