"""The oracle-pipeline benchmark (`bench/workloads.py`) answers start-goal
queries from a finished run directory through its own `QueryService`, which
calls `load_topology`, `load_high_model`, `make_encoder`, `SearchConfig`,
`search` and `execute` directly. The learned-lowlevel benchmark encodes
single-demonstration `DemoDataset`s with `encode_dataset` and checks the
latents against `len(traj)`, and pins the model one training epoch saves.
Loading the benchmark unmodified and asking it what the program already
answered catches a change to any of them that would break its query paths."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hubplan
from conftest import BENCH, load_bench_module
from hubplan import config, pipeline
from hubplan.config import ConfigError, RunConfig
from hubplan.demos import generate_success_demo, load_dataset, seen_unseen_split
from hubplan.hub_dynamics import CachedDist
from hubplan.latent import LearnedEncoder, LowLevelModel
from hubplan.maze import MazeEnv
from hubplan.planning import SearchConfig, search


def test_query_service_repeats_eval_plan_dumps(oracle_run):
    workloads = load_bench_module("workloads")
    svc = workloads.QueryService(oracle_run["cfg"])
    ds = load_dataset(oracle_run["out"] / "dataset")
    for sid, goal in (ds.seen[0], ds.unseen[0]):
        dump, _result = svc.query(sid, goal)
        plan = oracle_run["out"] / "plans" / f"plan_{sid}_{goal.first}{goal.second}.txt"
        assert dump == plan.read_text()


def test_query_service_searches_as_eval(oracle_run, monkeypatch):
    """`QueryService` builds its SearchConfig from `RunConfig`'s read-only
    `p_min`, `eta` and `depth_limit`; eval plans with `SearchConfig()`. The
    two agree on every field the search reads (it never reads `match_tol`)."""
    workloads = load_bench_module("workloads")
    svc = workloads.QueryService(oracle_run["cfg"])
    cfg = RunConfig()
    assert svc.search_cfg == SearchConfig(p_min=cfg.p_min, eta=cfg.eta,
                                          depth_limit=cfg.depth_limit,
                                          match_tol=cfg.effective_match_tol)
    used = []
    monkeypatch.setattr(pipeline, "search", lambda *args: used.append(args[-1]) or search(*args))
    sid, goal = load_dataset(oracle_run["out"] / "dataset").seen[0]
    pipeline.plan_task(svc.topo, CachedDist(svc.model, svc.topo), svc.env, svc.encoder, sid, goal)
    assert used == [SearchConfig()]
    for f in fields(SearchConfig):
        if f.name != "match_tol":
            assert getattr(svc.search_cfg, f.name) == getattr(used[0], f.name), f.name
    with pytest.raises(TypeError):
        RunConfig(p_min=1e-3)


def test_oracle_overrides_are_the_default_recipe():
    """The oracle-pipeline benchmark passes `RunConfig` the policy recipe's
    two settings, which are `edge_policies` constants: init-only arguments
    that accept the constants' values only, and no config-file keys."""
    workloads = load_bench_module("workloads")
    assert RunConfig(**workloads.ORACLE_OVERRIDES) == RunConfig()
    for name, value, constant in [("lr_policy", 1e-3, "LR_POLICY"),
                                  ("max_segments_per_edge", 4, "MAX_SEGMENTS_PER_EDGE")]:
        with pytest.raises(ConfigError, match=rf"edge_policies\.{constant}\b"):
            RunConfig(**{name: value})
        assert name not in {f.name for f in config.FILE_FIELDS}


def test_learned_encode_queries_repeat():
    workloads = load_bench_module("workloads")
    env = MazeEnv()
    sid, goal = seen_unseen_split()[0][0]
    traj = generate_success_demo(env, sid, goal)
    ds = SimpleNamespace(seed=0, successes=[traj])
    encoder = LearnedEncoder(LowLevelModel(np.random.default_rng(0)))
    queries = workloads._encode_queries(SimpleNamespace(), env, ds, encoder)
    assert queries.items == [traj]
    zs = queries.ask(traj)
    assert zs.shape == (len(traj) + 1, 64)
    assert np.all(np.isfinite(zs))
    assert queries.check(0, traj, zs, 0)
    again = queries.ask(traj)
    np.testing.assert_array_equal(again, zs)
    assert queries.check(0, traj, again, 1)


def test_learned_lowlevel_matches_reference(tmp_path):
    """gen-demos and train-low as the learned-lowlevel benchmark runs them, at
    seed 0 in a child process with one BLAS thread: the saved model's bytes
    depend on the BLAS thread count, so they are compared under the
    benchmark's setting."""
    workloads = load_bench_module("workloads")
    ref = json.loads((BENCH / "reference.json").read_text())["learned-lowlevel"]["0"]
    code = textwrap.dedent(f"""
        from hubplan.config import RunConfig
        from hubplan.pipeline import stage_gen_demos, stage_train_low

        cfg = RunConfig(seed=0, out_dir={str(tmp_path)!r}, encoder_backend="learned",
                        low_epochs={workloads.LOW_EPOCHS})
        stage_gen_demos(cfg)
        stage_train_low(cfg)
    """)
    src = str(Path(hubplan.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                   timeout=600)
    digest = hashlib.sha256((tmp_path / "lowlevel.bin").read_bytes()).hexdigest()
    assert digest == ref["hashes"]["lowlevel_bin"]
    first = (tmp_path / "lowlevel_loss.txt").read_text().splitlines()[0]
    assert first.split()[-1] == ref["values"]["epoch0_loss"]
