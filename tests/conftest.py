import importlib.util
import os
import time
import tracemalloc
from pathlib import Path

import pytest

# One BLAS thread, as the benchmark runs (bench/run.py): every pinned seed-0
# hash was recorded so. With two OpenBLAS threads the hub model's training
# products round differently, and `highlevel.bin`, plan costs and
# `metrics.json` move. OpenBLAS reads this once, when numpy is first
# imported, which is below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hubplan.config import RunConfig  # noqa: E402
from hubplan.pipeline import derive_no_memory_config, run_pipeline  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "bench"


def quiet(*_args, **_kwargs):
    pass


def traced_peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of the Python and numpy memory traced
    while it ran, in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_bench_module(name: str):
    """A module of `bench/`, loaded unmodified from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def oracle_run(tmp_path_factory):
    """Full oracle-backend pipeline run shared across the whole session.

    It runs under the traced benchmark's tracer (`bench/tracing.py`); the
    spans it installed and those that fired are kept for the span guard,
    and the lines it logged for the log checks."""
    out = tmp_path_factory.mktemp("oracle_run")
    cfg = RunConfig(out_dir=str(out), seed=0, encoder_backend="oracle")
    tracing = load_bench_module("tracing")
    tracer = tracing.Tracer()
    try:
        spans = tracing.install(tracer)
        t0 = time.time()
        lines: list[str] = []
        agg = run_pipeline(cfg, log=lines.append)
        runtime = time.time() - t0
    finally:
        tracer.uninstall()
    fired = {name for name in spans if tracer.calls[name]}
    return {"cfg": cfg, "out": out, "agg": agg, "runtime": runtime,
            "spans": spans, "fired": fired, "log": lines}


@pytest.fixture(scope="session")
def no_memory_run(oracle_run):
    cfg = derive_no_memory_config(oracle_run["cfg"])
    agg = run_pipeline(cfg, log=quiet)
    return {"cfg": cfg, "out": Path(cfg.out_dir), "agg": agg}
