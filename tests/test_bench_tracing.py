"""The traced benchmark (`bench/run.py --trace 1`) patches hubplan functions,
methods and `pipeline.STAGES` entries by name, and fails a run in which an
expected span never fired. Installing and removing its tracer here catches a
rename or deletion that would break traced runs; the session's oracle run,
made under the same tracer, catches a call the pipeline stopped making."""

import ast
import sys

import hubplan.pipeline
from conftest import BENCH, load_bench_module


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
    tracing = load_bench_module("tracing")
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


def bench_run_constants(*names: str) -> list:
    """Literal module constants of `bench/run.py`, read without importing it
    (importing it sets BLAS thread variables for the whole process)."""
    values = {}
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def test_oracle_run_fires_every_expected_span(oracle_run):
    expected_spans, not_in_oracle = bench_run_constants("EXPECTED_SPANS", "NOT_IN_ORACLE")
    # the benchmark's rule for the oracle-pipeline workload (bench/run.py per_layer)
    expected = expected_spans.get("oracle-pipeline", set(oracle_run["spans"]) - not_in_oracle)
    missing = sorted(expected - oracle_run["fired"])
    assert not missing, f"expected spans that never fired: {missing}"
