"""Span tracing for the traced benchmark mode.

Spans are recorded around calls into hubplan's layers by patching the
attributes callers resolve at call time: every hubplan module global bound to
a wrapped function (so a `from x import f` copy is patched too), dict entries
such as `hubplan.pipeline.STAGES`, and class attributes for methods. Nothing
in the program is edited; `Tracer.uninstall` restores every patched attribute.

Each span is (name, start, end, parent span, request id). Spans stay in memory
and are written out once, by `Tracer.dump`, when the run ends. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_clock = time.perf_counter


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # finished spans, one entry per column
        self.s_name: list[int] = []
        self.s_start: list[float] = []
        self.s_end: list[float] = []
        self.s_parent: list[int] = []
        self.s_request: list[int] = []
        self.request = 0
        self._stack: list[list] = []      # [span id, name id, start, child time]
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_rss: dict[str, float] = defaultdict(float)
        self.family = "other"
        self.tape_entered: float | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self._stack.append([self._next_id, nid, _clock(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        end = _clock()
        span_id, nid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        name = self.names[nid]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.s_name.append(nid)
        self.s_start.append(start)
        self.s_end.append(end)
        self.s_parent.append(parent[0] if parent is not None else -1)
        self.s_request.append(self.request)
        return dur

    def dump(self, path: Path, run_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, run_id=np.array(run_id), names=np.array(self.names),
            name=np.array(self.s_name, dtype=np.int32),
            start=np.array(self.s_start), end=np.array(self.s_end),
            parent=np.array(self.s_parent, dtype=np.int64),
            request=np.array(self.s_request, dtype=np.int32))

    # -- patching -------------------------------------------------------------

    def wrap(self, fn, name: str, after=None, family: str | None = None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            outer = tracer.family
            if family is not None:
                tracer.family = family
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close()
                tracer.family = outer
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    def _set(self, owner, attr, value, is_item: bool) -> None:
        old = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def rebind(self, target, replacement) -> int:
        """Point every hubplan module global and dict entry bound to `target`
        at `replacement`; returns how many bindings changed."""
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hubplan" or mod_name.startswith("hubplan.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._set(mod, key, replacement, is_item=False)
                    patched += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is target:
                            self._set(value, k, replacement, is_item=True)
                            patched += 1
        return patched

    def patch_function(self, fn, name: str, **kw) -> None:
        if self.rebind(fn, self.wrap(fn, name, **kw)) == 0:
            raise LookupError(f"{fn.__module__}.{fn.__name__} is bound nowhere")

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        self._set(cls, attr, self.wrap(getattr(cls, attr), name, **kw), is_item=False)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, is_item = self._patches.pop()
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)


def install(tracer: Tracer) -> list[str]:
    """Patch every traced boundary; returns the span names installed."""
    from hubplan import demos, edge_policies, execution, hub_dynamics, nn, pipeline, planning
    from hubplan import topology
    from hubplan.latent import model as latent_model
    from hubplan.latent import oracle, training
    from hubplan.maze import env, raster, trajectory

    names: list[str] = []
    count = tracer.counts

    def func(fn, name, **kw):
        tracer.patch_function(fn, name, **kw)
        names.append(name)

    def meth(cls, attr, name, **kw):
        tracer.patch_method(cls, attr, name, **kw)
        names.append(name)

    for stage, stage_fn in list(pipeline.STAGES.items()):
        def stage_rss(args, result, dur, stage=stage):
            tracer.stage_rss[stage] = max(tracer.stage_rss[stage], maxrss_mb())
        func(stage_fn, f"pipeline.{stage}", after=stage_rss)

    # nn: forward time runs from Tape.__enter__ to backprop, attributed to the
    # family of the enclosing training function
    func(edge_policies.train_policy_for_hub, "edge_policies.train_policy_for_hub", family="policy")
    func(hub_dynamics.train_on_sequences, "hub_dynamics.train_on_sequences", family="hub")
    func(training.train_low_level, "latent.train_low_level", family="low")

    tape_enter = nn.Tape.__enter__

    def enter(self):
        tracer.tape_entered = _clock()
        return tape_enter(self)

    tracer._set(nn.Tape, "__enter__", enter, is_item=False)

    def forward_done():
        if tracer.tape_entered is not None:
            count[f"nn.{tracer.family}.forward_s"] += _clock() - tracer.tape_entered
            tracer.tape_entered = None

    def backprop_counts(args, result, dur):
        count[f"nn.{tracer.family}.backward_s"] += dur
        count[f"nn.{tracer.family}.tape_nodes"] += len(args[0].nodes)
        count[f"nn.{tracer.family}.backprop_calls"] += 1

    def optim_time(args, result, dur):
        count[f"nn.{tracer.family}.optim_s"] += dur

    func(nn.backprop, "nn.backprop", before=forward_done, after=backprop_counts)
    meth(nn.Adam, "step", "nn.optim", after=optim_time)

    def io_bytes(args, result, dur):
        count["nn.io.bytes"] += Path(args[0]).stat().st_size

    func(nn.io.save_params, "nn.io.save", after=io_bytes)
    func(nn.io.load_params, "nn.io.load", after=io_bytes)

    def bank_counts(args, result, dur):
        count["edge_policies.policies"] += len(result.policies)
        count["edge_policies.epochs"] += sum(len(v) for v in result.train_losses.values())

    func(edge_policies.train_policies, "edge_policies.train", after=bank_counts)
    meth(edge_policies.PolicyBank, "act", "edge_policies.act")

    meth(env.MazeEnv, "step", "maze.step")
    func(raster.rasterize, "maze.rasterize")
    func(trajectory.replay_states, "maze.replay_states")

    func(demos.dataset.build_dataset, "demos.build_dataset")
    func(demos.dataset.save_dataset, "demos.save_dataset")
    func(demos.dataset.load_dataset, "demos.load_dataset")

    meth(oracle.OracleEncoder, "encode", "latent.oracle.encode")
    meth(latent_model.LearnedEncoder, "encode", "latent.learned.encode")

    def topo_counts(args, result, dur):
        count["topology.hubs"] += len(result.hubs)
        count["topology.edges"] += len(result.edges)
        count["topology.segments"] += sum(len(v) for v in result.segments.values())

    func(topology.encode_dataset, "topology.encode_dataset")
    func(topology.detect_hubs, "topology.detect_hubs")
    func(topology.build_topology, "topology.build", after=topo_counts)
    func(topology.save_topology, "topology.save")
    func(topology.load_topology, "topology.load")

    func(hub_dynamics.pretrain_on_traversals, "hub_dynamics.pretrain")
    func(hub_dynamics.train_high, "hub_dynamics.train")
    meth(hub_dynamics.HubDynamicsModel, "advance", "hub_dynamics.advance")

    func(planning.search, "planning.search")
    meth(hub_dynamics.CachedDist, "__call__", "planning.expand")

    def exec_counts(args, result, dur):
        count["execution.env_steps"] += result.steps
        count["execution.edges_crossed"] += result.edges_crossed

    func(execution.execute, "execution.execute", after=exec_counts)
    return names
