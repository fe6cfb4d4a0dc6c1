#!/usr/bin/env python3
"""hubplan benchmark: one workload per run, its outputs checked, its metrics printed.

    python3 bench/run.py --workload oracle-pipeline --seed 0 --seconds 8 --trace 0

Run from the root of a hubplan checkout; the program is imported from `src/`.
`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the calls into
each module with spans and prints per-layer metrics instead. `--check` runs
the workload with no measuring time and reports only whether its correctness
gate passed. Times are scaled to a reference host speed (hostspeed.py). The
last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
OUT = ROOT / ".bench_out"


class Run:
    """Attempts, checks, counts and measurements of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = RUNS / f"{workload}-s{seed}-{os.getpid()}"
        self.tracer = None
        self.speed = hostspeed.HostSpeed()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict = {"trace": int(trace)}
        self.counts: dict[str, int] = {}
        self.counts_per_round: list[int] = []
        self.hashes: dict[str, str] = {}
        self.values: dict[str, str] = {}
        self.setups: list[hostspeed.Interval] = []
        self.phases: list[tuple[hostspeed.Interval, float]] = []    # (timed phase, CPU s)
        self.queries = None
        self.timed_steps = 0        # real transitions trained per timed phase
        self.wall = self.elapsed = self.cpu = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"{name}: {detail}" if detail else name)

    def stage(self, fn, *args, **kwargs):
        """Call one pipeline step; a raised error fails the run."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(f"{getattr(fn, '__name__', fn)} raised")
            raise

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def setup_done(self, interval) -> None:
        self.setups.append(interval)

    def timed_done(self, interval, cpu: float) -> None:
        self.phases.append((interval, cpu))

    def report(self) -> None:
        """Time metrics, each scaled to the reference host speed: the median of
        the run's set-ups and of its timed phases. Every sample, scaled and
        raw, goes to `info`. The traced metrics use the median phase: its raw
        time, its CPU time and its elapsed time, which also holds the host
        speed samples, as the spans do."""
        scaled = self.speed.scaled
        setups = [scaled(iv) for iv in self.setups]
        self.metric("setup_s", statistics.median(setups), "s")
        walls = [scaled(iv) for iv, _cpu in self.phases]
        mid = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
        self.metric("wall_s", walls[mid], "s")
        phase, self.cpu = self.phases[mid]
        self.wall, self.elapsed = phase.raw, phase.end - phase.start
        if self.timed_steps:
            self.info["low_steps_per_s"] = self.timed_steps / walls[mid]
        if self.queries is not None:
            self.queries.report(scaled)
        took = self.speed.took
        self.info.update(
            setup_samples_s=setups, setup_raw_s=[iv.raw for iv in self.setups],
            wall_samples_s=walls, wall_raw_s=[iv.raw for iv, _cpu in self.phases],
            host_kernel_ref_ms=1e3 * hostspeed.REF_S, host_kernel_samples=len(took),
            host_kernel_median_ms=1e3 * statistics.median(took) if took else None)

    def tracer_request(self, request: int) -> None:
        if self.tracer is not None:
            self.tracer.request = request


def remove_stale_runs() -> None:
    """Remove run directories left by runs that were killed before cleaning up."""
    if not RUNS.is_dir():
        return
    for path in RUNS.iterdir():
        pid = path.name.rsplit("-", 1)[-1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


# -- run context ---------------------------------------------------------------


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def context(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": tree_sha256(SRC / "hubplan"),
        "bench_sha256": tree_sha256(BENCH),
    }


# -- gates shared by every workload ---------------------------------------------


def check_reference(run: Run) -> None:
    """Seeds with a recorded reference must reproduce its counts, hashes and values."""
    refs = json.loads((BENCH / "reference.json").read_text())
    ref = refs.get(run.workload, {}).get(str(run.seed))
    run.info["reference"] = ref is not None
    if ref is None:
        return
    for group, got in (("counts", run.counts), ("hashes", run.hashes), ("values", run.values)):
        for key, want in ref.get(group, {}).items():
            run.check(f"reference {group}.{key}", got.get(key) == want,
                      f"got {got.get(key)!r}, want {want!r}")


def check_counts_repeat(run: Run, ctx: dict) -> None:
    """Counts of one seed and mode must repeat from run to run of the same
    program and benchmark code."""
    if run.counts_per_round:
        run.check("per-round counts repeat", len(set(run.counts_per_round)) == 1,
                  repr(run.counts_per_round))
    path = OUT / "counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = (f"{run.workload}/seed={run.seed}/trace={run.info['trace']}/"
           f"{ctx['source_sha256']}/{ctx['bench_sha256']}")
    if key in seen:
        run.check("counts repeat the previous run", seen[key] == run.counts,
                  f"was {seen[key]}, now {run.counts}")
    seen[key] = run.counts
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


# -- per-layer metrics from the trace ---------------------------------------------

EXPECTED_SPANS = {
    "learned-lowlevel": {
        "pipeline.gen-demos", "pipeline.train-low", "latent.train_low_level", "nn.backprop",
        "nn.optim", "nn.io.save", "nn.io.load", "maze.step", "maze.rasterize",
        "demos.build_dataset", "demos.save_dataset", "demos.load_dataset",
        "latent.learned.encode", "topology.encode_dataset"},
}
NOT_IN_ORACLE = {"latent.learned.encode", "latent.train_low_level"}

STAGES = ["gen-demos", "train-low", "build-topology", "train-high", "train-policies", "eval"]
FAMILIES = {"policy": "edge_policies", "hub": "hub_dynamics", "low": "latent"}
LAYERS = ["pipeline", "nn", "nn.io", "edge_policies", "maze", "demos", "latent", "topology",
          "hub_dynamics", "planning", "execution"]


def layer_of(span: str) -> str:
    return "nn.io" if span.startswith("nn.io.") else span.split(".", 1)[0]


def span_cost_s() -> float:
    """Seconds one traced call adds, measured on a no-op."""
    from tracing import Tracer

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "calibrate")
    n = 20000
    t = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (time.perf_counter() - t - bare) / n)


def per_layer(run: Run, tracer, installed: list[str], per_span: float) -> None:
    total, calls, count = tracer.total, tracer.calls, tracer.counts
    m = run.metric

    expected = EXPECTED_SPANS.get(run.workload, set(installed) - NOT_IN_ORACLE)
    missing = sorted(expected - {name for name in installed if calls[name]})
    run.check("every expected span fired", not missing, ", ".join(missing))

    for stage in STAGES:
        m(f"pipeline.{stage}.wall_s", total[f"pipeline.{stage}"], "s")
        m(f"pipeline.{stage}.maxrss_mb", tracer.stage_rss[stage], "MB")
    for fam in FAMILIES:
        m(f"nn.{fam}.forward_s", count[f"nn.{fam}.forward_s"], "s")
        m(f"nn.{fam}.backward_s", count[f"nn.{fam}.backward_s"], "s")
        m(f"nn.{fam}.optim_s", count[f"nn.{fam}.optim_s"], "s")
        m(f"nn.{fam}.tape_nodes", count[f"nn.{fam}.tape_nodes"], "count")
        m(f"nn.{fam}.backprop_calls", count[f"nn.{fam}.backprop_calls"], "count")
    m("nn.io.save_s", total["nn.io.save"], "s")
    m("nn.io.load_s", total["nn.io.load"], "s")
    m("nn.io.bytes", count["nn.io.bytes"], "bytes")
    m("edge_policies.train_s", total["edge_policies.train"], "s")
    m("edge_policies.policies", count["edge_policies.policies"], "count")
    m("edge_policies.epochs", count["edge_policies.epochs"], "count")
    m("edge_policies.act_calls", calls["edge_policies.act"], "count")
    m("edge_policies.act_s", total["edge_policies.act"], "s")
    m("maze.step_calls", calls["maze.step"], "count")
    m("maze.step_s", total["maze.step"], "s")
    m("maze.rasterize_calls", calls["maze.rasterize"], "count")
    m("maze.rasterize_s", total["maze.rasterize"], "s")
    m("maze.replay_states_s", total["maze.replay_states"], "s")
    m("demos.build_dataset_s", total["demos.build_dataset"], "s")
    m("demos.save_dataset_s", total["demos.save_dataset"], "s")
    m("demos.load_dataset_s", total["demos.load_dataset"], "s")
    m("demos.load_dataset_calls", calls["demos.load_dataset"], "count")
    for kind in ("oracle", "learned"):
        m(f"latent.{kind}.encode_calls", calls[f"latent.{kind}.encode"], "count")
        m(f"latent.{kind}.encode_s", total[f"latent.{kind}.encode"], "s")
    m("topology.encode_dataset_calls", calls["topology.encode_dataset"], "count")
    m("topology.encode_dataset_s", total["topology.encode_dataset"], "s")
    m("topology.detect_hubs_s", total["topology.detect_hubs"], "s")
    m("topology.build_s", total["topology.build"], "s")
    m("topology.save_s", total["topology.save"], "s")
    m("topology.load_s", total["topology.load"], "s")
    for key in ("hubs", "edges", "segments"):
        m(f"topology.{key}", count[f"topology.{key}"], "count")
    m("hub_dynamics.pretrain_s", total["hub_dynamics.pretrain"], "s")
    m("hub_dynamics.train_s", total["hub_dynamics.train"], "s")
    m("hub_dynamics.advance_calls", calls["hub_dynamics.advance"], "count")
    m("planning.search_calls", calls["planning.search"], "count")
    m("planning.search_s", total["planning.search"], "s")
    m("planning.expansions", calls["planning.expand"], "count")
    m("execution.execute_s", total["execution.execute"], "s")
    m("execution.env_steps", count["execution.env_steps"], "count")
    m("execution.edges_crossed", count["execution.edges_crossed"], "count")
    m("process.cpu_s", run.cpu, "s")
    m("process.cpu_per_wall", run.cpu / run.elapsed, "ratio")

    # self time per layer; forward passes are nn time inside the training
    # function that opened the tape
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, value in tracer.self_time.items():
        self_s[layer_of(name)] += value
    for fam, layer in FAMILIES.items():
        self_s["nn"] += count[f"nn.{fam}.forward_s"]
        self_s[layer] -= count[f"nn.{fam}.forward_s"]
    for layer in LAYERS:
        m(f"{layer}.self_s", self_s[layer], "s")

    spans = len(tracer.s_name)
    stage_sum = sum(total[f"pipeline.{stage}"] for stage in STAGES)
    m("trace.wall_s", run.wall, "s")
    m("trace.spans", spans, "count")
    m("trace.overhead_est_s", spans * per_span, "s")
    m("trace.stage_cover", stage_sum / run.elapsed if run.workload == "oracle-pipeline" else 0.0,
      "ratio")

    for fam in FAMILIES:
        run.counts[f"nn.{fam}.tape_nodes"] = int(count[f"nn.{fam}.tape_nodes"])
    run.counts["hub_dynamics.advance_calls"] = calls["hub_dynamics.advance"]
    run.counts["topology.encode_dataset_calls"] = calls["topology.encode_dataset"]
    run.counts["demos.load_dataset_calls"] = calls["demos.load_dataset"]


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="untimed: run once, report the correctness gate only")
    args = parser.parse_args(argv)

    if not (SRC / "hubplan" / "__init__.py").is_file():
        print(f"bench: no hubplan sources under {SRC}; run from a hubplan checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, 0.0 if args.check else args.seconds, bool(args.trace))
    ctx = context(args.seed)
    per_span = 0.0
    installed: list[str] = []
    if args.trace:
        per_span = span_cost_s()
        run.tracer = tracing.Tracer()
        installed = tracing.install(run.tracer)

    crashed = False
    try:
        remove_stale_runs()
        shutil.rmtree(run.dir, ignore_errors=True)
        run.dir.mkdir(parents=True)
        run.speed.start()
        workloads.WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        crashed = True
        if run.failed == 0:
            run.fail("workload raised")
    finally:
        run.speed.stop()
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(run.dir, ignore_errors=True)
        run.check("run directory removed", not run.dir.exists())
        try:
            RUNS.rmdir()
        except OSError:
            pass

    if not crashed:
        run.report()
        run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "MB")
        run.speed.dump(OUT / f"host-{args.workload}-s{args.seed}.json", {
            "setup": run.setups, "timed": [iv for iv, _cpu in run.phases],
            "query": run.queries.samples if run.queries is not None else []})
        if args.trace:
            per_layer(run, run.tracer, installed, per_span)
            run.tracer.dump(OUT / f"trace-{args.workload}.npz",
                            f"{args.workload}-s{args.seed}-{os.getpid()}")
        check_reference(run)
        check_counts_repeat(run, ctx)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not crashed:
        wrong = sorted(name for name, unit in wanted.items()
                       if run.metrics.get(name, (None, None))[1] != unit)
        run.check("every metric of BENCHMARK.json measured in its unit", not wrong,
                  ", ".join(wrong))

    correct = not crashed and run.failed == 0
    detail = {"workload": args.workload, "context": ctx, "info": run.info, "counts": run.counts,
              "hashes": run.hashes, "values": run.values, "failures": run.failures}
    print(json.dumps({"detail": detail}, sort_keys=True))
    if args.check:
        print(f"{args.workload} seed {args.seed}: {'PASS' if correct else 'FAIL'} "
              f"({run.attempted} checks, {run.failed} failed)")
        return 0 if correct else 1

    metrics = {name: {"value": run.metrics[name][0] if name in run.metrics else None,
                      "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
