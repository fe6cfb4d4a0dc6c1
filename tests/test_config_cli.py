import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hubplan
from hubplan import edge_policies, hub_dynamics
from hubplan.cli import _build_parser, _load_config, main
from hubplan.config import ConfigError, RunConfig, parse_config, save_config
from hubplan.demos import load_dataset
from hubplan.edge_policies import train_policy_for_hub
from hubplan.hub_dynamics import HubDynamicsModel, pretrain_on_traversals, train_high
from hubplan.latent import LowLevelModel, train_low_level
from hubplan.maze.raster import OBS_SIZE
from hubplan.metrics import TaskRecord, aggregate, format_table, save_metrics
from hubplan.pipeline import derive_no_memory_config

from scenarios import build_scenario, scenario_topology

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = README.parent / "configs"


def removed_keys() -> list[str]:
    """The keys named in the first column of README's "Removed keys" table."""
    section = README.read_text().split("\n### Removed keys\n", 1)[1].split("\n## ", 1)[0]
    return [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]


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

    @staticmethod
    def saved_run(run_dir, **values):
        """A finished run's config.txt with the lines of `values` replaced."""
        path = run_dir / "config.txt"
        save_config(RunConfig(), path)
        lines = path.read_text().splitlines()
        for key, value in values.items():
            i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
            lines[i] = f"{key} = {value}"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("key, value", [
        ("depth_limit", 0), ("eta", -0.01), ("low_epochs", 0), ("max_segments_per_edge", 0),
        ("eta", "nan"), ("lr_policy", "nan"), ("epsilon", "inf"), ("seed", -1)])
    def test_out_of_range_value_rejected_at_load(self, tmp_path, capsys, key, value):
        # each of these values makes a later stage fail, or silently run
        # otherwise, after the ones before it ran; a finished run's
        # config.txt is read before any stage runs
        self.saved_run(tmp_path, **{key: value})
        assert main(["eval", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert re.search(rf"\b{key}\b.* must (be|not) ", err), err

    def test_repeated_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nepsilon = 0.01\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"c.cfg:3: key 'seed' already given on line 1"):
            parse_config(path)
        assert main(["gen-demos", "--config", str(path)]) == 2
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", removed_keys())
    def test_deleted_key_rejected(self, tmp_path, capsys, key):
        # a config.txt written while these keys existed fails at load; a run
        # directory is where its config.txt lies, so out_dir is no key either
        self.saved_run(tmp_path)
        with open(tmp_path / "config.txt", "a") as fh:
            fh.write(f"{key} = 1\n")
        assert main(["eval", "--out", str(tmp_path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("profile", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_profile_loads(self, profile):
        args = _build_parser().parse_args(["run-all", "--config", str(profile)])
        assert isinstance(_load_config(args), RunConfig)


class TestReadmeConfigurationTable:
    """README's configuration table names only `RunConfig` fields, each with
    its default, and every field but the two set by `--seed` and `--out`, so
    the settings are written down in one place. The table of removed keys
    under "### Removed keys" is `TestConfig.test_deleted_key_rejected`'s."""

    @staticmethod
    def rows():
        section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
        section = section.split("\n### ", 1)[0]
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
        # one row each for the fields but seed and out_dir, and no key twice
        documented = [key for _line, keys, _values in rows for key in keys]
        assert len(documented) == len(set(documented)) == len(fields(RunConfig)) - 2, documented
        for line, keys, values in rows:
            assert len(keys) == len(values), line
            for key, value in zip(keys, values):
                assert key in defaults, f"{key!r} is not a RunConfig field"
                kind, default = defaults[key]
                assert casts[kind](value) == default, f"{key}: README {value}, RunConfig {default}"

    def test_every_field_has_a_row(self):
        documented = {key for _line, keys, _values in self.rows() for key in keys}
        missing = {f.name for f in fields(RunConfig)} - {"seed", "out_dir"} - documented
        assert not missing, f"README's configuration table lacks {sorted(missing)}"


class TestReadmeObservationWidth:
    """README gives an observation row's width, `raster.OBS_SIZE`, in two
    places: the `(T + 1, width)` trajectory matrix and the `.obs` file's
    column count."""

    def test_widths_are_obs_size(self):
        text = README.read_text()
        formats = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
        obs_file = formats.split("- **observations**", 1)[1].split("\n- **", 1)[0]
        assert re.findall(r"column\s+count\s+\((\d+)\)", obs_file) == [str(OBS_SIZE)]
        shapes = re.findall(r"\(T \+ 1,\s*(\d+)\)", text)
        assert shapes and set(shapes) == {str(OBS_SIZE)}, shapes


class TestTrainersReadRunConfig:
    """Each trainer reads its own fields of the run configuration, and its
    module's constants when it is called, so a test can patch them."""

    @pytest.fixture(scope="class")
    def scenario(self):
        sc = build_scenario()
        return sc, scenario_topology(sc)

    @staticmethod
    def high_epochs(scenario, cfg):
        _sc, topo = scenario
        model = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs))
        return len(train_high(model, topo.hub_sequences(), topo))

    @staticmethod
    def pretrain_epochs(scenario, cfg):
        _sc, topo = scenario
        model = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs))
        return len(pretrain_on_traversals(model, topo, cfg))

    @staticmethod
    def low_epochs(scenario, cfg):
        traj = scenario[0].trajectories[0]
        short = type(traj)(start_id=traj.start_id, start=traj.start, goal=traj.goal,
                           success=traj.success, observations=traj.observations[:9],
                           actions=traj.actions[:8])
        return len(train_low_level(LowLevelModel(np.random.default_rng(0)), [short], cfg))

    @staticmethod
    def policy_epochs(scenario, cfg):
        sc, topo = scenario
        emb = HubDynamicsModel(np.random.default_rng(0), n_hubs=len(topo.hubs)).embeddings()
        _policy, losses = train_policy_for_hub(topo, sc.trajectories, 0, emb, cfg,
                                               np.random.default_rng(0))
        return len(losses)

    @pytest.mark.parametrize("overrides, measure, expected", [
        ({"low_epochs": 2}, low_epochs, 2),
    ], ids=["low_epochs"])
    def test_trainer_reads_its_field(self, scenario, overrides, measure, expected):
        assert measure(scenario, RunConfig(**overrides)) == expected

    @pytest.mark.parametrize("module, name, measure, value", [
        (hub_dynamics, "HIGH_EPOCHS", high_epochs, 3),
        (hub_dynamics, "PRETRAIN_EPOCHS", pretrain_epochs, 2),
        (edge_policies, "MAX_EPOCHS", policy_epochs, 4),  # below MIN_EPOCHS: no early stop
    ], ids=["HIGH_EPOCHS", "PRETRAIN_EPOCHS", "MAX_EPOCHS"])
    def test_trainer_reads_its_constant(self, scenario, monkeypatch, module, name, measure,
                                        value):
        monkeypatch.setattr(module, name, value)
        assert measure(scenario, RunConfig()) == value


class TestRunDirectoryConfig:
    """A run directory's config.txt holds the run's settings: every
    subcommand reads it, and gen-demos and run-all, the two that start a run
    and so the only two that take --config and --seed, refuse to start one
    under other settings than a config.txt already in --out."""

    CONTINUING = [["train-low"], ["build-topology"], ["train-high"], ["train-policies"],
                  ["eval"], ["plan", "--start", "0", "--goal", "red,blue"],
                  ["ablate", "--kind", "bfs"], ["ablate", "--kind", "no-memory"]]
    CONTINUING_IDS = ["train-low", "build-topology", "train-high", "train-policies", "eval",
                      "plan", "ablate-bfs", "ablate-no-memory"]
    SETTINGS = dict(seed=4, encoder_backend="learned", lr_policy=0.02, max_segments_per_edge=2)

    @pytest.fixture
    def run_dir(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        save_config(RunConfig(**self.SETTINGS), run / "config.txt")
        return run

    @staticmethod
    def load(*argv):
        return _load_config(_build_parser().parse_args(list(argv)))

    @pytest.mark.parametrize("argv", CONTINUING, ids=CONTINUING_IDS)
    def test_reads_run_config(self, run_dir, argv):
        cfg = self.load(*argv, "--out", str(run_dir))
        assert (cfg.encoder_backend, cfg.lr_policy, cfg.max_segments_per_edge) == \
            ("learned", 0.02, 2)
        assert (cfg.out_dir, cfg.seed) == (str(run_dir), 4)

    @pytest.mark.parametrize("command", ["gen-demos", "run-all"])
    def test_start_continues_run_settings(self, run_dir, command):
        assert self.load(command, "--out", str(run_dir)) == \
            RunConfig(out_dir=str(run_dir), **self.SETTINGS)

    @pytest.mark.parametrize("argv", CONTINUING, ids=CONTINUING_IDS)
    @pytest.mark.parametrize("flag, value", [("--seed", "9"), ("--config", "x.cfg")])
    def test_only_a_start_takes_config_and_seed(self, run_dir, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(run_dir), flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_and_seed_start_a_fresh_run(self, tmp_path):
        explicit = tmp_path / "explicit.cfg"
        save_config(RunConfig(lr_policy=0.5), explicit)
        fresh = str(tmp_path / "fresh")
        cfg = self.load("gen-demos", "--config", str(explicit), "--out", fresh, "--seed", "9")
        assert cfg == RunConfig(lr_policy=0.5, seed=9, out_dir=fresh)

    def test_run_without_config_file_uses_defaults(self, tmp_path):
        assert self.load("eval", "--out", str(tmp_path)) == RunConfig(out_dir=str(tmp_path))

    @staticmethod
    def files(run):
        return {p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*"))
                if p.is_file()}

    def test_gen_demos_keeps_run_config(self, run_dir):
        # the run's other artifacts were made under its config.txt, so
        # gen-demos must not replace it with the defaults
        before = (run_dir / "config.txt").read_bytes()
        assert main(["gen-demos", "--out", str(run_dir)]) == 0
        assert (run_dir / "config.txt").read_bytes() == before
        assert load_dataset(run_dir / "dataset").seed == 4

    def test_config_of_a_copied_run_writes_nothing_into_the_original(self, tmp_path,
                                                                     monkeypatch):
        original, copy, elsewhere = tmp_path / "original", tmp_path / "copy", tmp_path / "cwd"
        original.mkdir()
        elsewhere.mkdir()
        save_config(RunConfig(out_dir=str(original), lr_policy=0.02), original / "config.txt")
        shutil.copytree(original, copy)
        monkeypatch.chdir(elsewhere)
        assert main(["gen-demos", "--config", str(copy / "config.txt")]) == 0
        assert [p.name for p in original.iterdir()] == ["config.txt"]
        assert (elsewhere / "runs/default/config.txt").read_bytes() == \
            (copy / "config.txt").read_bytes()

    def test_start_with_another_seed_is_exit_2_and_writes_nothing(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["gen-demos", "--out", str(run)]) == 0
        before = self.files(run)
        capsys.readouterr()
        assert main(["gen-demos", "--out", str(run), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and re.search(r"\bseed\b", err), err
        assert self.files(run) == before

    def test_start_with_another_config_names_every_differing_key(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        save_config(RunConfig(), run / "config.txt")
        before = self.files(run)
        other = tmp_path / "other.cfg"
        save_config(RunConfig(seed=3, lr_policy=0.02, max_segments_per_edge=2), other)
        assert main(["gen-demos", "--config", str(other), "--out", str(run)]) == 2
        assert "seed, lr_policy, max_segments_per_edge;" in capsys.readouterr().err
        assert self.files(run) == before


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

    @pytest.mark.parametrize("key, flags", [("seed", ["--out", "D", "--seed", "-1"]),
                                            ("out_dir", ["--out", ""])],
                             ids=["seed", "out_dir"])
    def test_bad_override_is_exit_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       key, flags):
        # --out and --seed are checked like a file's values, before any stage runs
        monkeypatch.chdir(tmp_path)
        assert main(["gen-demos", *flags]) == 2
        assert re.search(rf"\b{key}\b.* must ", capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_missing_config_file_is_exit_2(self, capsys):
        assert main(["gen-demos", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("goal", ["pink,blue", "red"])
    def test_malformed_goal_is_exit_2(self, tmp_path, capsys, goal):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--out", str(tmp_path), "--start", "0", "--goal", goal])
        assert exc.value.code == 2
        assert "--goal" in capsys.readouterr().err

    def test_no_memory_ablation_encodes_pose_only(self, tmp_path):
        from hubplan.latent import MEMORYLESS_FIELDS
        from hubplan.pipeline import make_encoder

        cfg = derive_no_memory_config(RunConfig(out_dir=str(tmp_path / "run")))
        assert cfg.encoder_backend == "oracle-pose"
        assert make_encoder(cfg, tmp_path).fields == MEMORYLESS_FIELDS

    def test_no_memory_ablation_on_learned_backend_is_exit_2(self, tmp_path, capsys):
        # only the oracle backend has a pose-only variant; anything else would
        # silently rerun the full-memory pipeline
        run = tmp_path / "run"
        cfg = RunConfig(out_dir=str(run), encoder_backend="learned")
        with pytest.raises(ConfigError, match="oracle"):
            derive_no_memory_config(cfg)
        run.mkdir()
        save_config(cfg, run / "config.txt")
        assert main(["ablate", "--kind", "no-memory", "--out", str(run)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert [p.name for p in run.iterdir()] == ["config.txt"]

    def test_missing_artifact_is_exit_1_and_names_stage(self, tmp_path, capsys):
        code = main(["train-high", "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "gen-demos" in err or "build-topology" in err

    def test_stage_subcommands_exist(self):
        from hubplan.pipeline import STAGES

        assert list(STAGES) == ["gen-demos", "train-low", "build-topology",
                                "train-high", "train-policies", "eval"]

    def test_readme_commands_parse(self):
        # a flag or subcommand README documents must still exist: the lines
        # of the fenced block under Running, and every `hubplan <subcommand>`
        # span in the text, a span wrapped across a line break included
        text = README.read_text()
        block = text.split("## Running", 1)[1].split("```", 2)[1]
        commands = [line.split("#", 1)[0] for line in block.splitlines()
                    if line.startswith("hubplan ")]
        assert len(commands) >= 6
        spans = re.findall(r"`(hubplan\s[^`]+)`", text)
        assert spans
        for command in commands + spans:
            try:
                _build_parser().parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command!r}")

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


class TestCliBlasThreads:
    """The CLI runs BLAS on one thread unless the user set a count, and it
    must say so before numpy loads, which is when OpenBLAS reads it."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    SPY = textwrap.dedent("""
        import json, os, sys

        seen = []

        class NumpyImportSpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append({var: os.environ.get(var) for var in json.loads(sys.argv[1])})
                return None

        sys.meta_path.insert(0, NumpyImportSpy())
        import hubplan.cli
        print(json.dumps(seen))
    """)

    def threads_at_numpy_import(self, **preset):
        src = str(Path(hubplan.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", self.SPY, json.dumps(self.VARS)],
                                capture_output=True, text=True, env=env, check=True)
        seen = json.loads(result.stdout)
        assert len(seen) == 1, "numpy was not imported under hubplan.cli"
        return seen[0]

    def test_one_thread_by_default(self):
        assert self.threads_at_numpy_import() == dict.fromkeys(self.VARS, "1")

    def test_user_setting_wins(self):
        seen = self.threads_at_numpy_import(OPENBLAS_NUM_THREADS="2")
        assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}
