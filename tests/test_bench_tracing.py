"""The traced benchmark (`bench/run.py --trace 1`) patches hubplan functions,
methods and `pipeline.STAGES` entries by name. Installing and removing its
tracer here catches a rename or deletion that would break traced runs."""

import importlib.util
import sys
from pathlib import Path

import hubplan.pipeline

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def hubplan_bindings() -> dict:
    """Every hubplan module global, dict entry and class attribute, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hubplan" or mod_name.startswith("hubplan.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = id(value)
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in value.items():
                    out[(mod_name, key, k)] = id(v)
            elif isinstance(value, type) and value.__module__ == mod_name:
                for attr, v in vars(value).items():
                    out[(mod_name, key, attr)] = id(v)
    return out


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = hubplan_bindings()
    tracer = tracing.Tracer()
    try:
        names = tracing.install(tracer)
        assert {f"pipeline.{stage}" for stage in hubplan.pipeline.STAGES} <= set(names)
        assert "topology.encode_dataset" in names
        assert hubplan_bindings() != before
    finally:
        tracer.uninstall()
    after = hubplan_bindings()
    assert {key: after[key] for key in before} == before
