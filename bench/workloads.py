"""The benchmark's two workloads, each driving hubplan through its public
functions and checking what they produce.

Every call into hubplan goes through a module attribute (`pipeline.stage_eval`,
`planning.search`, ...), so the traced mode, which patches those attributes,
sees the same calls the program makes.

oracle-pipeline  run-all on the oracle backend, then start-goal queries
learned-lowlevel gen-demos, then low-level model training on the learned
                 backend, then encoding demonstrations with the trained encoder;
                 set-up and training three times each, with queries between

A timed phase that fits in a run more than once is repeated, and each query
is asked in many rounds spread over the run; the median of the repetitions is
reported. On a shared machine the same work was seen to take up to 2.5 times
as long from one spell to the next, and over windows of a few seconds the
median moved less than the fastest repetition did.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from collections import deque
from pathlib import Path

import numpy as np

from hubplan import edge_policies, execution, pipeline, planning, topology
from hubplan.config import RunConfig
from hubplan.demos import dataset
from hubplan.hub_dynamics import CachedDist

# run-all at the default config takes over three minutes on two cores, longer
# than one benchmark run may; with a larger policy learning rate and two
# segments per edge, early stopping ends policy training after about 4.5 times
# fewer epochs, and every reachable task is still solved
ORACLE_OVERRIDES = {"lr_policy": 2e-2, "max_segments_per_edge": 2}
MIN_QUERIES = 100       # ten or more samples beyond the 90th percentile
REPS = 3                # set-ups per run; low-level trainings per run
LOW_EPOCHS = 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def reachable(topo, start_hub: int, goal_hubs: set) -> bool:
    """Breadth-first search over the topology's edges, independent of the planner."""
    succ: dict[int, list[int]] = {}
    for s, t in topo.edges:
        succ.setdefault(s, []).append(t)
    seen, todo = {start_hub}, deque([start_hub])
    while todo:
        hub = todo.popleft()
        if hub in goal_hubs:
            return True
        for nxt in succ.get(hub, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


class Queries:
    """Latency samples of a fixed list of queries asked in rounds.

    `ask(item)` is the timed query; `check(index, item, answer, round)` says
    whether its answer is right and is not timed.

    A query does the same work in every round, so its latency is the median
    of its rounds, and the percentiles are taken over all samples, each
    replaced by its query's latency. The rounds are spread over the run with
    `until`.
    """

    def __init__(self, run, items: list, ask, check):
        self.run, self.items, self.ask, self.check = run, items, ask, check
        self.samples: list = []         # hostspeed.Interval per query asked
        self.rounds = 0
        run.queries = self

    def round(self) -> None:
        run = self.run
        for i, item in enumerate(self.items):
            run.tracer_request(len(self.samples) + 1)
            mark = run.speed.mark()
            answer = self.ask(item)
            self.samples.append(run.speed.since(mark))
            run.attempted += 1
            if not self.check(i, item, answer, self.rounds):
                run.fail(f"query {i} round {self.rounds} is wrong")
        run.tracer_request(0)
        self.rounds += 1

    def until(self, share: float) -> None:
        """Ask rounds until the queries have taken `share` of the run's measuring time."""
        while sum(iv.raw for iv in self.samples) < share * self.run.seconds:
            self.round()

    def finish(self) -> None:
        """Top up to the run's measuring time and MIN_QUERIES samples."""
        self.until(1.0)
        while len(self.samples) < MIN_QUERIES:
            self.round()

    def report(self, scaled) -> None:
        n = len(self.items)
        raw = [1e3 * iv.raw for iv in self.samples]
        norm = [1e3 * scaled(iv) for iv in self.samples]
        latency = [statistics.median(norm[i::n]) for i in range(n)]
        ms = [latency[i % n] for i in range(len(norm))]
        self.run.metric("query_p50_ms", statistics.median(ms), "ms")
        self.run.metric("query_p90_ms", statistics.quantiles(ms, n=10)[8], "ms")
        self.run.info.update(
            query_samples=len(ms), query_rounds=self.rounds, query_distinct=n,
            query_raw_p50_ms=statistics.median(raw),
            query_raw_p90_ms=statistics.quantiles(raw, n=10)[8])


def _fresh_gen_demos(run, cfg: RunConfig) -> None:
    """gen-demos into a fresh directory, timed as set-up."""
    lines: list[str] = []
    mark = run.speed.mark()
    run.stage(pipeline.stage_gen_demos, cfg, log=lines.append)
    run.setup_done(run.speed.since(mark))
    run.check("gen-demos built a fresh dataset",
              not any("reusing dataset" in line for line in lines), "; ".join(lines))


def _encode_queries(run, env, ds, encoder) -> Queries:
    """Encode each successful demonstration as its own query. Later rounds
    must repeat the latents of the first exactly.

    The successful demonstrations are the same for every seed, so the work
    per query does not change with the seed; the failures, drawn by seed, do.
    """
    first: dict[int, np.ndarray] = {}

    def ask(traj):
        one = dataset.DemoDataset(seed=ds.seed, seen=[], unseen=[], successes=[traj],
                                  failures=[], failure_specs=[])
        return topology.encode_dataset(env, one, encoder)[0].zs

    def check(i, traj, zs, rnd):
        if rnd == 0:
            first[i] = zs
            return bool(np.all(np.isfinite(zs))) and zs.shape[0] == len(traj) + 1
        return np.array_equal(zs, first[i])

    return Queries(run, ds.successes, ask, check)


# -- oracle-pipeline ------------------------------------------------------------


class QueryService:
    """A finished oracle run directory, loaded once, answering start-goal queries."""

    def __init__(self, cfg: RunConfig):
        out = Path(cfg.out_dir)
        self.cfg = cfg
        self.ds = dataset.load_dataset(out / "dataset")
        self.topo = topology.load_topology(out / "topology.txt", self.ds.trajectories)
        self.model = pipeline.load_high_model(cfg, "query", len(self.topo.hubs))
        self.bank = edge_policies.load_bank(out / "policies")
        self.env = pipeline.make_env(cfg)
        self.encoder = pipeline.make_encoder(cfg, out)
        self.embeddings = self.model.embeddings()
        self.search_cfg = planning.SearchConfig(
            p_min=cfg.p_min, eta=cfg.eta, depth_limit=cfg.depth_limit,
            match_tol=cfg.effective_match_tol)

    def query(self, start_id: int, goal):
        """reset -> encode -> match_start_hub -> search -> execute.

        Returns the plan dump as eval writes it, and the execution result
        (None when no plan was found).
        """
        env, topo, tol = self.env, self.topo, self.cfg.effective_match_tol
        state, obs = env.reset(env.starts[start_id], goal)
        self.encoder.begin_episode()
        z0 = self.encoder.encode(obs, state)
        try:
            start_hub = planning.match_start_hub(z0, topo, tol)
            plan = planning.search(topo, CachedDist(self.model, topo), start_hub,
                                   planning.goal_hub_set(goal, topo), self.search_cfg)
        except planning.NoPlanError as e:
            return f"no plan: {e}\n", None
        result = execution.execute(plan, env, state, obs, self.bank, self.encoder,
                                   self.embeddings, topo, match_tol=tol)
        return planning.format_plan(plan, topo) + result.format(), result


def oracle_pipeline(run) -> None:
    cfg = RunConfig(seed=run.seed, out_dir=str(run.dir / "oracle"), encoder_backend="oracle",
                    **ORACLE_OVERRIDES)
    out = Path(cfg.out_dir)
    lines: list[str] = []
    mark, c0 = run.speed.mark(), time.process_time()
    agg = run.stage(pipeline.run_pipeline, cfg, log=lines.append)
    run.timed_done(run.speed.since(mark), time.process_time() - c0)
    run.check("gen-demos built a fresh dataset",
              not any("reusing dataset" in line for line in lines), "")

    # set-up is loading the finished run directory into a query service;
    # loads and query rounds alternate
    mark = run.speed.mark()
    svc = QueryService(cfg)
    run.setup_done(run.speed.since(mark))
    topo, ds = svc.topo, svc.ds
    records = json.loads((out / "metrics.json").read_text())["per_task"]
    start_hub = {sid: h.id for h in topo.hubs for sid in h.start_ids}
    goals = {str(g): g for _sid, g in ds.seen + ds.unseen}
    for rec in records:
        sid = rec["start_id"]
        goal_hubs = set(topo.goal_hubs(goals[rec["goal"]]))
        if sid in start_hub and reachable(topo, start_hub[sid], goal_hubs):
            run.check(f"reachable task start={sid} goal={rec['goal']} succeeds",
                      rec["success"], rec["failure_reason"] or "")
    run.counts.update(
        hubs=len(topo.hubs), edges=len(topo.edges),
        segments=sum(len(v) for v in topo.segments.values()),
        policies=len(svc.bank.policies),
        policy_epochs=sum(int(line.split("epochs=")[1].split()[0])
                          for line in (out / "policy_loss.txt").read_text().splitlines()),
        seen_successes=agg["seen_successes"], unseen_successes=agg["unseen_successes"])
    run.info.update(seen_success_rate=agg["seen_success_rate"],
                    unseen_success_rate=agg["unseen_success_rate"])
    run.hashes.update(topology_txt=sha256_file(out / "topology.txt"),
                      metrics_json=sha256_file(out / "metrics.json"),
                      plans=sha256_dir(out / "plans"))

    # every query repeats eval's plan dump and outcome exactly
    by_task = {(r["start_id"], r["goal"]): r for r in records}
    dumps = {(sid, str(g)): (out / "plans" / f"plan_{sid}_{g.first}{g.second}.txt").read_text()
             for sid, g in ds.seen + ds.unseen}
    steps: dict[int, list[int]] = {}

    def check(i, pair, answer, rnd):
        dump, result = answer
        key = (pair[0], str(pair[1]))
        steps.setdefault(rnd, []).append(result.steps if result is not None else 0)
        return dump == dumps[key] and (
            result is None or (result.success, result.steps)
            == (by_task[key]["success"], by_task[key]["steps"]))

    queries = Queries(run, ds.seen + ds.unseen, lambda pair: svc.query(*pair), check)
    for rep in range(REPS):
        if rep:
            mark = run.speed.mark()
            svc = QueryService(cfg)
            run.setup_done(run.speed.since(mark))
        queries.until((rep + 1) / REPS)
    queries.finish()
    run.counts_per_round = [sum(v) for v in steps.values()]
    run.counts["query_env_steps"] = run.counts_per_round[0]
    run.info["query_steps_by_task"] = steps[0]


# -- learned-lowlevel -----------------------------------------------------------


def learned_lowlevel(run) -> None:
    """Set-up and training run REPS times, each in a fresh directory; query
    rounds with the first trained encoder follow each training. Every
    training must save the same model."""
    queries = None
    for rep in range(REPS):
        cfg = RunConfig(seed=run.seed, out_dir=str(run.dir / f"learned-{rep}"),
                        encoder_backend="learned", low_epochs=LOW_EPOCHS)
        out = Path(cfg.out_dir)
        _fresh_gen_demos(run, cfg)
        mark, c0 = run.speed.mark(), time.process_time()
        run.stage(pipeline.stage_train_low, cfg, log=lambda _m: None)
        run.timed_done(run.speed.since(mark), time.process_time() - c0)
        losses = [float(line.split()[-1])
                  for line in (out / "lowlevel_loss.txt").read_text().splitlines()]
        run.check("one loss per epoch", len(losses) == LOW_EPOCHS, str(len(losses)))
        run.check("losses finite", all(math.isfinite(v) for v in losses), repr(losses))
        model_hash = sha256_file(out / "lowlevel.bin")
        if rep == 0:
            if losses:
                run.values["epoch0_loss"] = repr(losses[0])
            run.hashes["lowlevel_bin"] = model_hash
            ds = dataset.load_dataset(out / "dataset")
            env = pipeline.make_env(cfg)
            queries = _encode_queries(run, env, ds, pipeline.make_encoder(cfg, out))
        else:
            run.check(f"training {rep} saves the same model",
                      model_hash == run.hashes["lowlevel_bin"])
        queries.until((rep + 1) / REPS)
    queries.finish()
    real_steps = sum(len(t) for t in ds.trajectories)
    run.counts["trajectories"] = len(ds.trajectories)
    run.counts["real_steps"] = real_steps
    run.timed_steps = LOW_EPOCHS * real_steps


WORKLOADS = {
    "oracle-pipeline": oracle_pipeline,
    "learned-lowlevel": learned_lowlevel,
}
