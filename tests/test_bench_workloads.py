"""The oracle-pipeline benchmark (`bench/workloads.py`) answers start-goal
queries from a finished run directory through its own `QueryService`, which
calls `load_topology`, `load_high_model`, `make_encoder`, `SearchConfig`,
`search` and `execute` directly. Loading it unmodified and asking it what eval
already answered catches a change to any of them that would break the
benchmark's query path."""

from conftest import load_bench_module
from hubplan.demos import load_dataset


def test_query_service_repeats_eval_plan_dumps(oracle_run):
    workloads = load_bench_module("workloads")
    svc = workloads.QueryService(oracle_run["cfg"])
    ds = load_dataset(oracle_run["out"] / "dataset")
    for sid, goal in (ds.seen[0], ds.unseen[0]):
        dump, _result = svc.query(sid, goal)
        plan = oracle_run["out"] / "plans" / f"plan_{sid}_{goal.first}{goal.second}.txt"
        assert dump == plan.read_text()
