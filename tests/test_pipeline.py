import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from hubplan import hub_dynamics, nn, pipeline
from hubplan.cli import main
from hubplan.config import RunConfig
from hubplan.demos import build_dataset, load_dataset
from hubplan.maze import DEFAULT_MAP, Goal, MazeEnv
from hubplan.edge_policies import EdgePolicy, PolicyBank, save_bank
from hubplan.hub_dynamics import HubDynamicsModel
from hubplan.latent import LearnedEncoder, LowLevelModel
from hubplan.pipeline import (HIGH_KIND, LOW_KIND, StageError, ablate_bfs, evaluate,
                              load_high_model, make_encoder, plan_task, stage_eval,
                              stage_train_high)
from hubplan.planning import NoPlanError, bfs_plan
from hubplan.topology import BehaviorTopology, Hub, Segment, load_topology

from conftest import load_bench_module

# seed 0 at the default config: topology.txt, metrics.json and the plans/
# and dataset/ directories as `bench/workloads.py` hashes them; a change of
# these bytes is a re-baseline and is recorded as one
DEFAULT_CONFIG_SHA256 = {
    "topology.txt": "a31c2ba4fecb12debb00d63c0efb4d18836337656de8508dcef22a0fbf9c19e6",
    "metrics.json": "aa8e0e96537b44233f8f5a75d69d20db4d6fc229ea054a630e692326f79e55c7",
    "plans": "bfc41f550ebd5818bf6639780f8b2944f04f4625b3d41896534c25d3f4b68f36",
    "dataset": "54a7747d475715374fc6d4261b4a05a6e6ee20dd57f2c53ccc5666536bf12c22",
}
# the BFS ablation of that run: ablate_bfs/metrics.json and ablate_bfs/plans/
BFS_ABLATION_SHA256 = {
    "metrics.json": "77c6136b1f0ffb515926864d784705fa8818d7c49964b0438d8f221654713065",
    "plans": "dd1abf688c614fe21cd267ba0d52ab83db498b3d8c1f59606494cae4c16e6df8",
}


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

    def test_default_config_outputs_pinned(self, oracle_run):
        workloads = load_bench_module("workloads")
        out = oracle_run["out"]
        got = {"topology.txt": workloads.sha256_file(out / "topology.txt"),
               "metrics.json": workloads.sha256_file(out / "metrics.json"),
               "plans": workloads.sha256_dir(out / "plans"),
               "dataset": workloads.sha256_dir(out / "dataset")}
        assert got == DEFAULT_CONFIG_SHA256

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
        # a dataset left by another configuration must not be reused: the
        # seed picks which canonical failures are demonstrated
        from hubplan.pipeline import stage_gen_demos

        cfg = RunConfig(out_dir=str(tmp_path), seed=0)
        stage_gen_demos(cfg, log=lambda *a: None)
        seed0_specs = load_dataset(tmp_path / "dataset").failure_specs
        stage_gen_demos(dataclasses.replace(cfg, seed=1), log=lambda *a: None)
        ds = load_dataset(tmp_path / "dataset")
        assert ds.seed == 1
        assert ds.failure_specs == build_dataset(MazeEnv(), seed=1).failure_specs
        assert ds.failure_specs != seed0_specs


def test_run_pipeline_logs_each_stage_wall_and_peak(monkeypatch):
    def stage(cfg, log):
        log("stage body")
        return {"ran": True}

    monkeypatch.setattr(pipeline, "STAGES", {"first": stage, "second": stage})
    lines = []
    assert pipeline.run_pipeline(RunConfig(), log=lines.append) == {"ran": True}
    pattern = r"stage={} wall_s=\d+\.\d\d maxrss_mb=\d+\.\d"
    assert re.fullmatch(pattern.format("first"), lines[1])
    assert re.fullmatch(pattern.format("second"), lines[3])
    assert lines[0] == lines[2] == "stage body" and lines[4].startswith("run-all: finished")


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
        cfg = RunConfig(out_dir=str(tmp_path), encoder_backend="learned")
        model = LowLevelModel(np.random.default_rng(0), latent_dim=8, hidden=16)
        nn.save_params(tmp_path / "lowlevel.bin", LOW_KIND, model.tensors())
        encoder = make_encoder(cfg, tmp_path)
        assert (encoder.model.latent_dim, encoder.model.hidden) == (8, 16)
        assert list(encoder.model.tensors()) == list(model.tensors())
        env = MazeEnv()
        _state, obs = env.reset(env.starts[0], Goal(0, 1))
        np.testing.assert_array_equal(encoder.encode(obs), LearnedEncoder(model).encode(obs))

    def test_train_high_reads_topology_without_encoder(self, oracle_run, tmp_path, monkeypatch):
        # the hub sequences come from topology.txt, so the learned backend
        # trains the hub model without a low-level model on disk
        out = tmp_path / "learned"
        shutil.copytree(oracle_run["out"] / "dataset", out / "dataset")
        shutil.copy(oracle_run["out"] / "topology.txt", out / "topology.txt")
        monkeypatch.setattr(hub_dynamics, "HIGH_EPOCHS", 2)
        monkeypatch.setattr(hub_dynamics, "PRETRAIN_TRAVERSALS", 0)
        cfg = RunConfig(out_dir=str(out), encoder_backend="learned")
        lines = []
        stage_train_high(cfg, log=lines.append)
        assert re.fullmatch(r"train-high: train \d+\.\d{4} -> \d+\.\d{4}", lines[-1]), lines
        assert not (out / "lowlevel.bin").exists()
        topo = load_topology(out / "topology.txt", load_dataset(out / "dataset").trajectories)
        assert load_high_model(cfg, "train-policies", len(topo.hubs)).n_hubs == len(topo.hubs)
        assert len((out / "high_loss.txt").read_text().splitlines()) == 2

    @staticmethod
    def eval_run_dir(oracle_run, out: Path) -> Path:
        """A run directory that shares the oracle run's inputs to eval but
        has no policies/ yet."""
        out.mkdir()
        for name in ("config.txt", "dataset", "topology.txt", "highlevel.bin"):
            (out / name).symlink_to(oracle_run["out"] / name)
        return out

    def test_policy_bank_for_another_topology_rejected(self, oracle_run, no_memory_run,
                                                       tmp_path, capsys):
        out = self.eval_run_dir(oracle_run, tmp_path / "stale")
        shutil.copytree(no_memory_run["out"] / "policies", out / "policies")
        assert main(["eval", "--out", str(out)]) == 1
        assert "train-policies" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_policy_bank_of_another_embedding_width_rejected(self, oracle_run, tmp_path, capsys):
        out = self.eval_run_dir(oracle_run, tmp_path / "stale")
        (out / "policies").mkdir()
        for path in (oracle_run["out"] / "policies").glob("policy_*.bin"):
            (out / "policies" / path.name).symlink_to(path)
        index = json.loads((oracle_run["out"] / "policies" / "index.json").read_text())
        (out / "policies" / "index.json").write_text(json.dumps({**index, "emb_dim": 16}))
        assert main(["eval", "--out", str(out)]) == 1
        assert "train-policies" in capsys.readouterr().err

    def test_split_integrity_no_unseen_demos(self, oracle_run):
        ds = load_dataset(oracle_run["out"] / "dataset")
        seen = {(sid, str(g)) for sid, g in ds.seen}
        for traj in ds.trajectories:
            assert (traj.start_id, str(traj.goal)) in seen


class TestMatchingTolerance:
    """Start and arrival hubs match within the topology's `epsilon`, the
    bucket width its hubs were built with, even where `cfg.epsilon` is wider."""

    EPS = 1e-3
    OFF = 2e-3      # beyond EPS of a representative, within the run's epsilon

    class StubEncoder:
        """The first latent of an episode is `first`, every later one `later`."""

        def __init__(self, first, later):
            self.first, self.later = first, later

        def begin_episode(self):
            self.calls = 0

        def encode(self, obs, state):
            self.calls += 1
            return np.array([self.first if self.calls == 1 else self.later])

    def topology(self):
        """Start hub 0 at bucket 0, goal hub 1 at bucket 10, one edge 0 -> 1."""
        hubs = [Hub(0, (0,), np.array([0.5 * self.EPS]), start_ids=frozenset({0})),
                Hub(1, (10,), np.array([10.5 * self.EPS]),
                    terminal_meta=frozenset({(Goal(0, 1), 1)}))]
        return BehaviorTopology(self.EPS, 1, hubs, {(0, 1): [Segment(0, 1, 0, 0, 5)]})

    def test_plan_task_start_outside_topology_epsilon(self, tmp_path):
        topo = self.topology()
        cfg = RunConfig(out_dir=str(tmp_path), epsilon=5 * self.EPS)
        encoder = self.StubEncoder(topo.hubs[0].representative[0] + self.OFF, 0.0)
        with pytest.raises(NoPlanError, match="tolerance"):
            plan_task(cfg, topo, None, MazeEnv(), encoder, 0, Goal(0, 1), planner=bfs_plan)

    @pytest.mark.parametrize("off", ["start", "arrival"])
    def test_evaluate_matches_within_topology_epsilon(self, tmp_path, monkeypatch, off):
        topo = self.topology()
        cfg = RunConfig(out_dir=str(tmp_path), epsilon=5 * self.EPS)
        model = HubDynamicsModel(np.random.default_rng(0), n_hubs=2)
        nn.save_params(tmp_path / "highlevel.bin", HIGH_KIND, model.tensors())
        policy = EdgePolicy(np.random.default_rng(1), model.emb_dim)
        save_bank(PolicyBank(model.emb_dim, {0: policy}), tmp_path / "policies")
        start, goal = (h.representative[0] for h in topo.hubs)
        encoder = (self.StubEncoder(start + self.OFF, goal) if off == "start"
                   else self.StubEncoder(start, goal + self.OFF))
        monkeypatch.setattr(pipeline, "make_encoder", lambda _cfg, _out: encoder)
        [record] = evaluate(cfg, topo, [(0, Goal(0, 1), True)], log=lambda _line: None)
        if off == "start":
            assert record.failure_reason == "no-plan"
        else:
            assert (record.planned_edges, record.edges_crossed) == (1, 0)
            assert record.failure_reason in ("hub-timeout", "env-terminal")


class TestPlanCli:
    def test_plan_subcommand_prints_plan(self, oracle_run, capsys):
        code = main(["plan", "--out", str(oracle_run["out"]),
                     "--start", "1", "--goal", "red,blue"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("plan hubs=")
        assert "history" in text
        # the plan eval searched for the same task, up to its execution lines
        dump = (oracle_run["out"] / "plans" / "plan_1_01.txt").read_text()
        assert dump[:len(text)] == text
        assert dump[len(text):].startswith("execution success=")

    def test_plan_dumps_written_per_task(self, oracle_run):
        plans = list((oracle_run["out"] / "plans").glob("plan_*.txt"))
        assert len(plans) == 36
        sample = plans[0].read_text()
        assert "transition" in sample and "execution success=" in sample


    def test_eval_log_counts_search_expansions(self, oracle_run):
        """Each eval line names the histories its task's search expanded.
        A* expands 423 histories over this run's 36 tasks; best-first
        search by cost alone (`tests/planning_reference.py`) expanded 1,860."""
        lines = [line for line in oracle_run["log"] if line.startswith("eval: start=")]
        assert len(lines) == 36
        found = [re.fullmatch(r"eval: .* expansions=(\d+)", line) for line in lines]
        assert all(found), lines[0]
        assert sum(int(m.group(1)) for m in found) <= 500


class TestBfsAblationOnStandardMaze:
    def test_bfs_planner_metrics(self, oracle_run):
        # with the state-injective feature map every demonstrated edge is
        # executable from its exact source state, so hop-count plans also
        # succeed here; the constructed shortcut variant is where they break
        ds = load_dataset(oracle_run["out"] / "dataset")
        topo = load_topology(oracle_run["out"] / "topology.txt", ds.trajectories)
        pairs = [(sid, g, True) for sid, g in ds.seen][:4]
        lines = []
        records = evaluate(oracle_run["cfg"], topo, pairs, log=lines.append,
                           plans_subdir="bfs_probe", planner=bfs_plan)
        assert all(r.success for r in records)
        # BFS asks the hub model nothing, so its lines count no expansions
        assert len(lines) == 4 and not any("expansions=" in line for line in lines), lines
        # hop-minimality: bfs plans never exceed the history-planner's length
        hist = json.loads((oracle_run["out"] / "metrics.json").read_text())["per_task"]
        by_key = {(r["start_id"], r["goal"]): r for r in hist}
        for r in records:
            assert r.planned_edges <= by_key[(r.start_id, r.goal)]["planned_edges"]

    def test_ablation_outputs_pinned(self, oracle_run, tmp_path):
        workloads = load_bench_module("workloads")
        out = tmp_path / "run"
        out.mkdir()
        for path in oracle_run["out"].iterdir():
            (out / path.name).symlink_to(path)
        agg = ablate_bfs(dataclasses.replace(oracle_run["cfg"], out_dir=str(out)),
                         log=lambda *a: None)
        assert (agg["seen_successes"], agg["unseen_successes"]) == (18, 18)
        got = {"metrics.json": workloads.sha256_file(out / "ablate_bfs" / "metrics.json"),
               "plans": workloads.sha256_dir(out / "ablate_bfs" / "plans")}
        assert got == BFS_ABLATION_SHA256


class TestMapFile:
    def test_env_from_file(self, tmp_path):
        path = tmp_path / "maze.txt"
        path.write_text(DEFAULT_MAP)
        env = MazeEnv(path.read_text())
        assert env.starts[0].pos == (3, 3)
        assert env.barrel_cell == (4, 7)
