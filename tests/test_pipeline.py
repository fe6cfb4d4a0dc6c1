import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from hubplan import nn
from hubplan.cli import main
from hubplan.config import RunConfig
from hubplan.demos import load_dataset
from hubplan.maze import DEFAULT_MAP, Goal, MazeEnv
from hubplan.hub_dynamics import HubDynamicsModel
from hubplan.latent import LearnedEncoder, LowLevelModel
from hubplan.pipeline import (HIGH_KIND, LOW_KIND, StageError, evaluate, load_high_model,
                              make_encoder, stage_eval, stage_train_high)
from hubplan.topology import load_topology


class TestArtifacts:
    def test_topology_round_trip_on_real_run(self, oracle_run):
        out = oracle_run["out"]
        ds = load_dataset(out / "dataset")
        topo = load_topology(out / "topology.txt", ds.trajectories)
        again = Path(str(out)) / "topology_roundtrip.txt"
        from hubplan.topology import save_topology

        save_topology(topo, again)
        assert again.read_text() == (out / "topology.txt").read_text()

    def test_params_round_trip_bit_identical(self, oracle_run):
        out = oracle_run["out"]
        kind, tensors = nn.load_params(out / "highlevel.bin")
        assert kind == "highlevel"
        copy = out / "highlevel_copy.bin"
        nn.save_params(copy, kind, tensors)
        assert copy.read_bytes() == (out / "highlevel.bin").read_bytes()

    def test_text_artifacts_hold_no_numpy_reprs(self, oracle_run):
        out = oracle_run["out"]
        paths = sorted((out / "dataset").glob("*.log"))
        assert len(paths) == 138
        paths += [out / name for name in
                  ("topology.txt", "config.txt", "high_loss.txt", "policy_loss.txt",
                   "metrics.txt")]
        for path in paths:
            assert "np." not in path.read_text(), path.name

    def test_corrupted_artifact_rejected(self, oracle_run, tmp_path):
        blob = bytearray((oracle_run["out"] / "highlevel.bin").read_bytes())
        blob[100] ^= 0x55
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(nn.ArtifactError, match="checksum"):
            nn.load_params(bad)


class TestDeterminism:
    def test_eval_stage_reproduces_metrics_bytes(self, oracle_run):
        out = oracle_run["out"]
        before = (out / "metrics.json").read_bytes()
        stage_eval(oracle_run["cfg"], log=lambda *a: None)
        assert (out / "metrics.json").read_bytes() == before
        assert (out / "metrics.txt").read_text().startswith("start goal")

    def test_gen_demos_rebuilds_dataset_for_new_config(self, tmp_path):
        # a dataset left by another configuration with the same seed and
        # failure count must not be reused: the wrong-key penalty changes rewards
        from hubplan.pipeline import stage_gen_demos

        cfg = RunConfig(out_dir=str(tmp_path), seed=0, wrong_key_penalty=0.0)
        stage_gen_demos(cfg, log=lambda *a: None)
        stage_gen_demos(dataclasses.replace(cfg, wrong_key_penalty=-5.0), log=lambda *a: None)
        ds = load_dataset(tmp_path / "dataset")
        wrong = [traj for traj, (_sid, _goal, spec) in zip(ds.failures, ds.failure_specs)
                 if spec.kind == "wrong_key"]
        assert len(wrong) == 70
        assert [traj.rewards[-1] for traj in wrong] == [-5.1] * len(wrong)


class TestStageGuards:
    def test_missing_topology_names_stage(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path / "fresh"))
        (tmp_path / "fresh").mkdir()
        with pytest.raises(StageError, match="gen-demos"):
            stage_train_high(cfg, log=lambda *a: None)

    def test_hub_model_for_another_topology_rejected(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path))
        model = HubDynamicsModel(np.random.default_rng(0), n_hubs=5)
        nn.save_params(tmp_path / "highlevel.bin", HIGH_KIND, model.tensors())
        np.testing.assert_array_equal(load_high_model(cfg, "eval", 5).embeddings(),
                                      model.embeddings())
        with pytest.raises(StageError, match="train-high"):
            load_high_model(cfg, "train-policies", 7)

    def test_low_level_model_loads_its_own_widths(self, tmp_path):
        cfg = RunConfig(out_dir=str(tmp_path), encoder_backend="learned", latent_dim=8)
        model = LowLevelModel(np.random.default_rng(0), latent_dim=8, hidden=16)
        nn.save_params(tmp_path / "lowlevel.bin", LOW_KIND, model.tensors())
        encoder = make_encoder(cfg, tmp_path)
        assert (encoder.model.latent_dim, encoder.model.hidden) == (8, 16)
        assert list(encoder.model.tensors()) == list(model.tensors())
        env = MazeEnv()
        _state, obs = env.reset(env.starts[0], Goal(0, 1))
        np.testing.assert_array_equal(encoder.encode(obs), LearnedEncoder(model).encode(obs))
        with pytest.raises(StageError, match="train-low"):
            make_encoder(dataclasses.replace(cfg, latent_dim=64), tmp_path)

    def test_train_high_reads_topology_without_encoder(self, oracle_run, tmp_path):
        # the hub sequences come from topology.txt, so the learned backend
        # trains the hub model without a low-level model on disk
        out = tmp_path / "learned"
        shutil.copytree(oracle_run["out"] / "dataset", out / "dataset")
        shutil.copy(oracle_run["out"] / "topology.txt", out / "topology.txt")
        cfg = RunConfig(out_dir=str(out), encoder_backend="learned", high_epochs=2,
                        pretrain_traversals=0)
        stage_train_high(cfg, log=lambda *a: None)
        assert not (out / "lowlevel.bin").exists()
        topo = load_topology(out / "topology.txt", load_dataset(out / "dataset").trajectories)
        assert load_high_model(cfg, "train-policies", len(topo.hubs)).n_hubs == len(topo.hubs)
        assert len((out / "high_loss.txt").read_text().splitlines()) == 2

    def test_split_integrity_no_unseen_demos(self, oracle_run):
        ds = load_dataset(oracle_run["out"] / "dataset")
        seen = {(sid, str(g)) for sid, g in ds.seen}
        for traj in ds.trajectories:
            assert (traj.start_id, str(traj.goal)) in seen


class TestPlanCli:
    def test_plan_subcommand_prints_plan(self, oracle_run, capsys):
        code = main(["plan", "--out", str(oracle_run["out"]),
                     "--start", "1", "--goal", "red,blue"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("plan hubs=")
        assert "history" in text

    def test_plan_dumps_written_per_task(self, oracle_run):
        plans = list((oracle_run["out"] / "plans").glob("plan_*.txt"))
        assert len(plans) == 36
        sample = plans[0].read_text()
        assert "transition" in sample and "execution success=" in sample


class TestBfsAblationOnStandardMaze:
    def test_bfs_planner_metrics(self, oracle_run):
        # with the state-injective feature map every demonstrated edge is
        # executable from its exact source state, so hop-count plans also
        # succeed here; the constructed shortcut variant is where they break
        cfg = dataclasses.replace(oracle_run["cfg"], planner_backend="bfs")
        ds = load_dataset(oracle_run["out"] / "dataset")
        topo = load_topology(oracle_run["out"] / "topology.txt", ds.trajectories)
        pairs = [(sid, g, True) for sid, g in ds.seen][:4]
        records = evaluate(cfg, topo, pairs, log=lambda *a: None, plans_subdir="bfs_probe")
        assert all(r.success for r in records)
        # hop-minimality: bfs plans never exceed the history-planner's length
        hist = json.loads((oracle_run["out"] / "metrics.json").read_text())["per_task"]
        by_key = {(r["start_id"], r["goal"]): r for r in hist}
        for r in records:
            assert r.planned_edges <= by_key[(r.start_id, r.goal)]["planned_edges"]


class TestMapFile:
    def test_env_from_file(self, tmp_path):
        path = tmp_path / "maze.txt"
        path.write_text(DEFAULT_MAP)
        env = MazeEnv(path.read_text())
        assert env.starts[0].pos == (3, 3)
        assert env.barrel_cell == (4, 7)
