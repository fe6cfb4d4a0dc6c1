import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hubplan
from hubplan.cli import _build_parser, _load_config, main
from hubplan.config import ConfigError, RunConfig, apply_env_overrides, parse_config, save_config
from hubplan.edge_policies import perturb_segment, train_policy_for_hub
from hubplan.hub_dynamics import HubDynamicsModel, train_high
from hubplan.latent import LowLevelModel, train_low_level
from hubplan.metrics import TaskRecord, aggregate, format_table, save_metrics
from hubplan.pipeline import derive_no_memory_config
from hubplan.topology import Segment

from scenarios import build_scenario, scenario_topology

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(seed=7, epsilon=0.002, encoder_backend="oracle")
        path = tmp_path / "run.cfg"
        save_config(cfg, path)
        assert parse_config(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# run settings\nseed = 3\n\nepsilon = 0.01  # tolerance\n")
        cfg = parse_config(path)
        assert cfg.seed == 3 and cfg.epsilon == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = fast\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(encoder_backend="psychic")

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("HUBPLAN_SEED", "99")
        monkeypatch.setenv("HUBPLAN_OUT", "/tmp/elsewhere")
        cfg = apply_env_overrides(RunConfig())
        assert cfg.seed == 99
        assert cfg.out_dir == "/tmp/elsewhere"

    def test_env_override_bad_seed(self, monkeypatch):
        monkeypatch.setenv("HUBPLAN_SEED", "soon")
        with pytest.raises(ConfigError):
            apply_env_overrides(RunConfig())


class TestReadmeConfigurationTable:
    """README's configuration table names only `RunConfig` fields, each with
    its default, so the settings are written down in one place."""

    @staticmethod
    def rows():
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        for line in section.splitlines():
            cells = line.split("|")
            if len(cells) < 4 or not cells[1].strip().startswith("`"):
                continue
            keys = [k for cell in re.findall(r"`([^`]+)`", cells[1]) for k in cell.split("/")]
            values = [v for cell in re.findall(r"`([^`]+)`", cells[2]) for v in cell.split("/")]
            yield line, keys, values

    def test_keys_are_fields_with_their_defaults(self):
        defaults = {f.name: (f.type, f.default) for f in fields(RunConfig)}
        casts = {"int": int, "float": float, "str": str}
        rows = list(self.rows())
        assert len(rows) >= 10
        for line, keys, values in rows:
            assert len(keys) == len(values), line
            for key, value in zip(keys, values):
                assert key in defaults, f"{key!r} is not a RunConfig field"
                kind, default = defaults[key]
                assert casts[kind](value) == default, f"{key}: README {value}, RunConfig {default}"


class TestTrainersReadRunConfig:
    """Each trainer takes the run configuration and reads its own fields."""

    @pytest.fixture(scope="class")
    def scenario(self):
        sc = build_scenario()
        return sc, scenario_topology(sc)

    @staticmethod
    def high_epochs(scenario, cfg):
        _sc, topo = scenario
        model = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs))
        return len(train_high(model, topo.hub_sequences(), topo, cfg))

    @staticmethod
    def low_epochs(scenario, cfg):
        traj = scenario[0].trajectories[0]
        short = type(traj)(start_id=traj.start_id, start=traj.start, goal=traj.goal,
                           success=traj.success, observations=traj.observations[:9],
                           actions=traj.actions[:8], rewards=traj.rewards[:8])
        return len(train_low_level(LowLevelModel(np.random.default_rng(0)), [short], cfg))

    @staticmethod
    def policy_epochs(scenario, cfg):
        sc, topo = scenario
        emb = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs)).embeddings()
        _policy, losses = train_policy_for_hub(topo, sc.trajectories, 0, emb, cfg,
                                               np.random.default_rng(0))
        return len(losses)

    @staticmethod
    def preroll_share(_scenario, cfg):
        rng = np.random.default_rng(0)
        draws = [perturb_segment(Segment(0, 1, 0, begin, begin + 4), rng, cfg)
                 for begin in range(1, 6) for _ in range(40)]
        return sum(v.variant == "preroll" and v.begin < v.base.begin for v in draws) / len(draws)

    @pytest.mark.parametrize("overrides, measure, expected", [
        ({"high_epochs": 3}, high_epochs, 3),
        ({"low_epochs": 2}, low_epochs, 2),
        ({"policy_epochs": 4}, policy_epochs, 4),  # below MIN_EPOCHS: no early stop
        ({"p_canonical": 0.0, "p_truncated": 0.0, "p_preroll": 1.0}, preroll_share, 1.0),
    ], ids=["high_epochs", "low_epochs", "policy_epochs", "p_preroll"])
    def test_trainer_reads_its_field(self, scenario, overrides, measure, expected):
        assert measure(scenario, RunConfig(**overrides)) == expected


class TestRunDirectoryConfig:
    """A subcommand that continues a run reads the run directory's config.txt
    when it is given no --config; gen-demos and run-all start from defaults."""

    CONTINUING = [["train-low"], ["build-topology"], ["train-high"], ["train-policies"],
                  ["eval"], ["plan", "--start", "0", "--goal", "red,blue"],
                  ["ablate", "--kind", "bfs"], ["ablate", "--kind", "no-memory"]]

    @pytest.fixture(autouse=True)
    def no_env_overrides(self, monkeypatch):
        monkeypatch.delenv("HUBPLAN_OUT", raising=False)
        monkeypatch.delenv("HUBPLAN_SEED", raising=False)

    @pytest.fixture
    def run_dir(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        save_config(RunConfig(out_dir="moved/away", seed=4, encoder_backend="learned",
                              lr_policy=0.02, max_segments_per_edge=2), run / "config.txt")
        return run

    @staticmethod
    def load(*argv):
        return _load_config(_build_parser().parse_args(list(argv)))

    @pytest.mark.parametrize("argv", CONTINUING, ids=[
        "train-low", "build-topology", "train-high", "train-policies", "eval", "plan",
        "ablate-bfs", "ablate-no-memory"])
    def test_reads_run_config(self, run_dir, argv):
        cfg = self.load(*argv, "--out", str(run_dir))
        assert (cfg.encoder_backend, cfg.lr_policy, cfg.max_segments_per_edge) == \
            ("learned", 0.02, 2)
        assert (cfg.out_dir, cfg.seed) == (str(run_dir), 4)

    @pytest.mark.parametrize("command", ["gen-demos", "run-all"])
    def test_new_run_starts_from_defaults(self, run_dir, command):
        assert self.load(command, "--out", str(run_dir)) == RunConfig(out_dir=str(run_dir))

    def test_overrides_apply_on_top(self, run_dir, tmp_path, monkeypatch):
        assert self.load("eval", "--out", str(run_dir), "--seed", "9").seed == 9
        monkeypatch.setenv("HUBPLAN_OUT", str(run_dir))
        monkeypatch.setenv("HUBPLAN_SEED", "7")
        cfg = self.load("eval")
        assert (cfg.out_dir, cfg.seed, cfg.encoder_backend) == (str(run_dir), 7, "learned")
        explicit = tmp_path / "explicit.cfg"
        save_config(RunConfig(lr_policy=0.5), explicit)
        assert self.load("eval", "--config", str(explicit)).lr_policy == 0.5

    def test_run_without_config_file_uses_defaults(self, tmp_path):
        assert self.load("eval", "--out", str(tmp_path)) == RunConfig(out_dir=str(tmp_path))


def records_fixture():
    return [
        TaskRecord(0, "red,blue", True, True, 100, 10, 10, 0.5, None),
        TaskRecord(0, "red,green", True, False, 40, 3, 8, 0.7, "hub-timeout"),
        TaskRecord(1, "blue,red", False, True, 120, 12, 12, 0.6, None),
        TaskRecord(1, "green,red", False, False, 0, 0, 0, float("nan"), "no-plan"),
    ]


class TestMetrics:
    def test_aggregate_values(self):
        agg = aggregate(records_fixture())
        assert agg["seen_successes"] == 1 and agg["seen_total"] == 2
        assert agg["seen_success_rate"] == 0.5
        assert agg["unseen_success_rate"] == 0.5
        assert agg["seen_mean_steps"] == 100.0
        assert agg["unseen_mean_edges"] == 12.0
        assert agg["actions_per_edge"] == (100 + 120) / (10 + 12)

    def test_aggregates_recomputable_from_table(self, tmp_path):
        records = records_fixture()
        agg = save_metrics(records, tmp_path)
        data = json.loads((tmp_path / "metrics.json").read_text())
        per_task = data["per_task"]
        wins = [r for r in per_task if r["success"]]
        total_steps = sum(r["steps"] for r in wins)
        total_edges = sum(r["edges_crossed"] for r in wins)
        assert data["aggregates"]["actions_per_edge"] == total_steps / total_edges
        assert data["aggregates"] == {k: v for k, v in agg.items()}

    def test_table_mentions_every_task(self):
        text = format_table(records_fixture(), aggregate(records_fixture()))
        assert text.count("red,blue") == 1
        assert "no-plan" in text


class TestCliExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        code = main(["gen-demos", "--config", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, capsys):
        assert main(["gen-demos", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("goal", ["pink,blue", "red"])
    def test_malformed_goal_is_exit_2(self, tmp_path, capsys, goal):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--out", str(tmp_path), "--start", "0", "--goal", goal])
        assert exc.value.code == 2
        assert "--goal" in capsys.readouterr().err

    def test_no_memory_ablation_on_learned_backend_is_exit_2(self, tmp_path, capsys):
        # only the oracle backend has a pose-only variant; anything else would
        # silently rerun the full-memory pipeline
        cfg = RunConfig(out_dir=str(tmp_path / "run"), encoder_backend="learned")
        with pytest.raises(ConfigError, match="oracle"):
            derive_no_memory_config(cfg)
        path = tmp_path / "learned.cfg"
        save_config(cfg, path)
        assert main(["ablate", "--kind", "no-memory", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_artifact_is_exit_1_and_names_stage(self, tmp_path, capsys):
        code = main(["train-high", "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gen-demos" in err or "build-topology" in err

    def test_stage_subcommands_exist(self):
        from hubplan.pipeline import STAGES

        assert list(STAGES) == ["gen-demos", "train-low", "build-topology",
                                "train-high", "train-policies", "eval"]

    def test_console_entry_point(self):
        # the child imports the same hubplan as this process, installed or not
        src = str(Path(hubplan.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "hubplan.cli", "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        for name in ("gen-demos", "run-all", "ablate", "plan"):
            assert name in result.stdout
