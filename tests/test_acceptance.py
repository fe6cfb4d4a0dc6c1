"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the full oracle-backend run and the no-memory ablation run)
are built once per session and shared. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they happen.
"""

import json
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from hubplan import hub_dynamics, nn
from hubplan.config import RunConfig
from hubplan.demos import load_dataset
from hubplan.edge_policies import (EdgePolicy, perturb_segment, sequence_loss_and_grads,
                                    train_policies)
from hubplan.execution import execute
from hubplan.hub_dynamics import HubDynamicsModel, CachedDist, \
    pretrain_on_traversals, train_high, train_on_sequences
from hubplan.latent import LowLevelModel, train_low_level, training
from hubplan.maze import Goal, MazeEnv, replay_states
from hubplan.planning import NoPlanError, SearchConfig, bfs_plan, goal_hub_set, search

from gradient_reference import finite_diff_check, finite_diff_error
from hub_reference import next_hub_dist
from scenarios import build_scenario, scenario_topology
from test_planning import enumerate_best, pseudo_random_dist, toy_topology
from test_topology import brute_force_hubs


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def quiet(*_args, **_kwargs):
    pass


@pytest.fixture(scope="session")
def shortcut_scenario():
    sc = build_scenario()
    topo = scenario_topology(sc)
    model = HubDynamicsModel(np.random.default_rng(1), n_hubs=len(topo.hubs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hub_dynamics, "PRETRAIN_TRAVERSALS", 500)
        mp.setattr(hub_dynamics, "PRETRAIN_MAX_LEN", 32)
        mp.setattr(hub_dynamics, "HIGH_EPOCHS", 250)
        pretrain_on_traversals(model, topo, RunConfig(seed=1))
        train_high(model, topo.hub_sequences(), topo)
    bank = train_policies(topo, sc.trajectories, model.embeddings(), 1, log=quiet)
    return sc, topo, model, bank


# -- independent reachability oracle over the serialized topology -----------

def parse_topology_file(path: Path):
    """Minimal standalone parser: start annotations, success-goal labels, edges."""
    start_hub: dict[int, int] = {}
    goal_hubs: dict[str, set] = {}
    edges: set = set()
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "hub":
            hub_id = int(parts[1])
            fields = dict(kv.split("=", 1) for kv in parts[2:])
            for sid in fields["starts"].split(","):
                if sid:
                    start_hub[int(sid)] = hub_id
            for entry in fields["terminal"].split(";"):
                if not entry:
                    continue
                goal_text, y = entry.rsplit(":", 1)
                if y == "1":
                    goal_hubs.setdefault(goal_text, set()).add(hub_id)
        elif parts[0] == "edge":
            edges.add((int(parts[1]), int(parts[2])))
    return start_hub, goal_hubs, edges


def file_reachable(edges: set, source: int, targets: set) -> bool:
    if source in targets:
        return True
    adj: dict[int, list] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    seen = {source}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in adj.get(node, ()):
            if nxt in targets:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


# -- criteria ----------------------------------------------------------------

def test_criterion_oracle_seen(oracle_run):
    agg = oracle_run["agg"]
    runtime = oracle_run["runtime"]
    ok = agg["seen_successes"] == 18 and agg["seen_total"] == 18 and runtime < 600
    report("oracle-end-to-end-seen", ok,
           f"seen {agg['seen_successes']}/18, runtime {runtime:.1f}s < 600s")


def test_criterion_oracle_unseen_matches_reachability(oracle_run):
    out = oracle_run["out"]
    start_hub, goal_hubs, edges = parse_topology_file(out / "topology.txt")
    manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    unseen = manifest["unseen"]
    reachable = sum(
        file_reachable(edges, start_hub[sid], goal_hubs.get(goal, set()))
        for sid, goal in unseen
    )
    reach_fraction = reachable / len(unseen)
    exec_fraction = oracle_run["agg"]["unseen_success_rate"]
    ok = exec_fraction == reach_fraction
    report("oracle-unseen-equals-reachability", ok,
           f"executed {exec_fraction:.4f} vs reachable {reach_fraction:.4f} "
           f"({reachable}/{len(unseen)} pairs)")


def test_criterion_search_optimality():
    cfg = SearchConfig(p_min=1e-3, eta=0.01, depth_limit=4)
    t0 = time.time()
    mismatches = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        edge_set = {(a, b) for a in range(n) for b in range(n)
                    if a != b and rng.random() < 0.35}
        goal_set = {int(g) for g in rng.choice(n, size=max(1, n // 3), replace=False)}
        topo = toy_topology(n, edge_set, terminals=tuple(goal_set))
        dist = pseudo_random_dist(topo, n, seed)
        want = enumerate_best(topo, dist, 0, goal_set, cfg)
        try:
            plan = search(topo, dist, 0, goal_set, cfg)
            got = (plan.cost, len(plan.history), tuple(plan.history))
        except NoPlanError:
            got = None
        if got != want:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30
    report("search-optimality", ok,
           f"500 topologies, {mismatches} mismatches, {elapsed:.1f}s < 30s")


def test_criterion_masking_soundness():
    rng = np.random.default_rng(2024)
    checked = 0
    violations = 0
    while checked < 10_000:
        n = int(rng.integers(3, 12))
        edge_set = {(a, b) for a in range(n) for b in range(n)
                    if a != b and rng.random() < 0.35}
        topo = toy_topology(n, edge_set, terminals=(n - 1,))
        model = HubDynamicsModel(rng, n)
        for _ in range(200):
            history = tuple(int(rng.integers(0, n)) for _ in range(int(rng.integers(1, 7))))
            dist = next_hub_dist(model, history, topo)
            nbrs = topo.out_neighbors(history[-1])
            if any(dist[h] != 0.0 for h in range(n) if (history[-1], h) not in edge_set):
                violations += 1
            if nbrs and abs(dist.sum() - 1.0) > 1e-9:
                violations += 1
            if not nbrs and dist.sum() != 0.0:
                violations += 1
            checked += 1
    report("masking-soundness", violations == 0,
           f"{checked} histories, {violations} violations")


def test_criterion_gradient_correctness():
    rng = np.random.default_rng(7)
    errors = {}

    model = LowLevelModel(rng, latent_dim=5, hidden=7)
    obs = rng.uniform(size=(2, 590))
    obs2 = rng.uniform(size=(2, 590))

    def f_encoder():
        h = nn.Tensor(np.zeros((2, 5)))
        z, _ = model.encode_step(nn.Tensor(obs), h)
        return nn.sum_all(nn.tensor.mul(z, z))

    errors["encoder"] = finite_diff_check(
        f_encoder, [model.enc_w1, model.enc_b1, model.enc_w2, model.enc_b2,
                    model.enc_corr_w, model.enc_corr_b] + list(model.gru.tensors().values()))

    from hubplan.nn import weighted_sq_error
    from hubplan.maze.raster import VIEW_SIZE, channel_weights

    cwn = channel_weights() / channel_weights().sum()
    bar_tgt = np.array([[0, 2], [1, 0]])
    term_tgt = np.array([[0.0, 0.0], [1.0, 1.0]])

    def f_low():
        h = nn.Tensor(np.zeros((2, 5)))
        z, h = model.encode_step(nn.Tensor(obs), h)
        z_hat = model.predict_next(z, nn.Tensor(np.eye(6)[[1, 4]]))
        z_next, _ = model.encode_step(nn.Tensor(obs2), h)
        loss = weighted_sq_error(z_hat, z_next, np.ones((2, 1)), 2.0)
        vis, b0, b1, term = model.decode(z_hat)
        vd = nn.tensor.sub(vis, nn.Tensor(obs2[:, :VIEW_SIZE]))
        loss = nn.tensor.add(loss, nn.sum_all(nn.tensor.mul(nn.tensor.mul(vd, vd),
                                                            cwn[None, :])))
        loss = nn.tensor.add(loss, nn.softmax_cross_entropy(b0, bar_tgt[:, 0]))
        loss = nn.tensor.add(loss, nn.softmax_cross_entropy(b1, bar_tgt[:, 1]))
        return nn.tensor.add(loss, nn.bce_with_logits(term, term_tgt))

    errors["low-all-heads"] = finite_diff_check(f_low, model.parameters())

    topo = toy_topology(4, {(0, 1), (0, 2), (1, 3), (2, 3)}, terminals=(3,))
    high = HubDynamicsModel(rng, 4, emb_dim=3, hidden=4)
    from hubplan.hub_dynamics import topology_mask_matrix

    mask = topology_mask_matrix(topo, 4)
    ids = np.array([[0, 1, 3]])

    def f_high():
        h = nn.Tensor(np.zeros((1, 4)))
        loss = None
        for t in range(2):
            x = nn.gather_rows(high.emb, ids[:, t])
            h = nn.gru_step(high.gru, x, h)
            logits = nn.matmul(h, high.head_w) + high.head_b
            ce = nn.softmax_cross_entropy(logits, ids[:, t + 1], additive_mask=mask[ids[:, t]])
            loss = ce if loss is None else nn.tensor.add(loss, ce)
        return loss

    errors["high-model"] = finite_diff_check(f_high, high.parameters())

    # the policy trains with hand-written backpropagation through time, so
    # its gradients are checked directly
    policy = EdgePolicy(rng, emb_dim=3, enc_hidden=6, gru_hidden=4)
    xs = rng.uniform(size=(2, 3, 593))
    acts = np.array([[0, 2, 4], [1, 3, 5]])
    steps = np.ones((2, 3))

    def f_policy():
        return sequence_loss_and_grads(policy, xs, acts, steps, label_smoothing=0.05)

    errors["policy"] = finite_diff_error(lambda: f_policy()[0], f_policy()[1],
                                            policy.parameters())

    worst = max(errors.values())
    report("gradient-correctness", worst < 1e-4,
           "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in errors.items()))


def test_criterion_hub_detection_soundness():
    from hubplan.topology import LatentTrajectory, detect_hubs

    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        trajs = []
        for tid in range(rng.integers(2, 6)):
            n = int(rng.integers(2, 12))
            codes = rng.integers(0, 4, size=(n, 2))
            zs = (codes * 10 + 0.5) * 1e-3
            goal = Goal(*rng.choice(4, size=2, replace=False))
            trajs.append(LatentTrajectory(tid, int(rng.integers(0, 3)), goal,
                                          bool(rng.integers(0, 2)), zs))
        hubs = detect_hubs(trajs, 1e-3)
        got = {h.cluster: (h.kinds, h.terminal_meta, h.start_ids) for h in hubs}
        if got != brute_force_hubs(trajs, 1e-3):
            mismatches += 1
    report("hub-detection-soundness", mismatches == 0,
           f"100 seeded sets, {mismatches} mismatches")


def test_criterion_demo_validity(oracle_run):
    env = MazeEnv()
    ds = load_dataset(oracle_run["out"] / "dataset")
    from hubplan.demos import failure_candidates

    counts_ok = (len(ds.successes) == 18 and len(ds.failures) == 120
                 and len(failure_candidates(ds.seen)) == 234)
    bad = 0
    for traj in ds.successes:
        final = replay_states(env, traj)[-1]
        if not (final.terminal and final.success and len(traj) <= 400):
            bad += 1
    for traj in ds.failures:
        final = replay_states(env, traj)[-1]
        if not (final.terminal and not final.success):
            bad += 1
    report("demo-validity", counts_ok and bad == 0,
           f"counts 18/120/234 ok={counts_ok}, bad replays={bad}")


def test_criterion_perturbation_mix():
    from test_edge_policies import make_segment, variant

    rng = np.random.default_rng(777)
    seg = make_segment(n_actions=8, begin=5)
    counts = {"canonical": 0, "truncated": 0, "preroll": 0}
    n = 10_000
    for _ in range(n):
        counts[variant(perturb_segment(seg, rng), seg)] += 1
    fracs = {k: v / n for k, v in counts.items()}
    ok = (abs(fracs["canonical"] - 0.8) <= 0.02 and abs(fracs["truncated"] - 0.1) <= 0.02
          and abs(fracs["preroll"] - 0.1) <= 0.02)
    report("perturbation-mix", ok,
           f"canonical={fracs['canonical']:.3f} truncated={fracs['truncated']:.3f} "
           f"preroll={fracs['preroll']:.3f}")


def test_criterion_horizon_compression_reporting(oracle_run):
    data = json.loads((oracle_run["out"] / "metrics.json").read_text())
    agg = data["aggregates"]
    required = ["seen_mean_edges", "unseen_mean_edges", "seen_mean_steps",
                "unseen_mean_steps", "actions_per_edge", "seen_success_rate",
                "unseen_success_rate"]
    have_fields = all(k in agg for k in required)
    wins = [r for r in data["per_task"] if r["success"]]
    consistent = True
    for split, flag in (("seen", True), ("unseen", False)):
        group = [r for r in wins if r["seen"] == flag]
        if group:
            consistent &= agg[f"{split}_mean_edges"] == sum(r["edges_crossed"] for r in group) / len(group)
            consistent &= agg[f"{split}_mean_steps"] == sum(r["steps"] for r in group) / len(group)
    total_steps = sum(r["steps"] for r in wins)
    total_edges = sum(r["edges_crossed"] for r in wins)
    consistent &= agg["actions_per_edge"] == total_steps / total_edges
    report("horizon-compression-reporting", have_fields and consistent,
           f"fields ok={have_fields}, exact recomputation ok={consistent}; desk-scale "
           f"edges {agg['seen_mean_edges']:.2f}/{agg['unseen_mean_edges']:.2f}, "
           f"steps {agg['seen_mean_steps']:.2f}/{agg['unseen_mean_steps']:.2f}, "
           f"actions/edge {agg['actions_per_edge']:.2f} "
           f"(reference context: 33.61/33.39 edges, 243.78/281.39 steps, 7.9 actions/edge)")


def test_criterion_ablation_no_memory(oracle_run, no_memory_run):
    full_hubs = sum(1 for line in (oracle_run["out"] / "topology.txt").read_text().splitlines()
                    if line.startswith("hub "))
    abl_hubs = sum(1 for line in (no_memory_run["out"] / "topology.txt").read_text().splitlines()
                   if line.startswith("hub "))
    agg = no_memory_run["agg"]
    zero = agg["seen_successes"] == 0 and agg["unseen_successes"] == 0
    ok = abl_hubs < full_hubs and zero
    report("ablation-no-memory", ok,
           f"hubs {abl_hubs} < {full_hubs}, successes {agg['seen_successes']}+"
           f"{agg['unseen_successes']} of {agg['seen_total'] + agg['unseen_total']}")


def test_criterion_ablation_bfs_shortcut(shortcut_scenario):
    sc, topo, model, bank = shortcut_scenario
    goals = goal_hub_set(sc.goal, topo)
    start_hub = next(h.id for h in topo.hubs if 0 in h.start_ids)
    plan_b = bfs_plan(topo, start_hub, goals)
    plan_h = search(topo, CachedDist(model, topo), start_hub, goals, SearchConfig())

    def run(plan):
        state, obs = sc.env.reset(sc.env.starts[0], sc.goal)
        sc.encoder.begin_episode()
        return execute(plan, sc.env, state, obs, bank, sc.encoder, model.embeddings(), topo)

    res_b = run(plan_b)
    res_h = run(plan_h)
    shorter = len(plan_b.history) < len(plan_h.history)
    ok = shorter and not res_b.success and res_h.success
    report("ablation-bfs-shortcut", ok,
           f"bfs {len(plan_b.edges)} edges -> success={res_b.success} "
           f"({res_b.failure_reason}), history-planner {len(plan_h.edges)} edges -> "
           f"success={res_h.success}")


def test_criterion_learned_backend_smoke(oracle_run, monkeypatch):
    env = MazeEnv()
    ds = load_dataset(oracle_run["out"] / "dataset")

    # low-level: losses over the desk dataset strictly decrease
    low = LowLevelModel(np.random.default_rng(3))
    low_losses = train_low_level(low, ds.trajectories, RunConfig(low_epochs=3))
    low_ok = all(b < a for a, b in zip(low_losses, low_losses[1:]))

    # high-level and policy losses from the pipeline's training logs
    high_lines = [l for l in (oracle_run["out"] / "high_loss.txt").read_text().splitlines()
                  if l.startswith("epoch ")]
    high_losses = [float(l.split()[-1]) for l in high_lines]
    high_ok = high_losses[-1] < high_losses[0]
    pol_ok = True
    for line in (oracle_run["out"] / "policy_loss.txt").read_text().splitlines():
        parts = dict(kv.split("=") for kv in line.split()[1:])
        if float(parts["last"]) >= float(parts["first"]):
            pol_ok = False

    # single-example overfit: raw optimization drives losses to ~0.
    traj = ds.successes[0]
    tiny = type(traj)(start_id=traj.start_id, start=traj.start, goal=traj.goal,
                      success=traj.success, observations=traj.observations[:2],
                      actions=traj.actions[:1])
    low2 = LowLevelModel(np.random.default_rng(0))
    monkeypatch.setattr(training, "LR_LOW", 3e-3)
    over_low = train_low_level(low2, [tiny], RunConfig(low_epochs=1500))[-1]

    topo = toy_topology(3, {(0, 1), (0, 2)}, terminals=(1,))
    high2 = HubDynamicsModel(np.random.default_rng(1), 3)
    over_high = train_on_sequences(high2, [[0, 1]], topo, lr=5e-3, epochs=400)[-1]

    # label smoothing floors the cross-entropy, so the bare-optimizer overfit
    # check runs without it (and without observation noise)
    from test_edge_policies import FakeTrajectory, make_segment

    seg = make_segment(n_actions=3, begin=0)
    traj = FakeTrajectory()  # trajectory 0, the one make_segment spans
    policy = EdgePolicy(np.random.default_rng(2), emb_dim=4)
    emb = np.zeros((2, 4))
    opt = nn.Adam(policy.parameters(), lr=5e-3)
    xs = np.stack([np.concatenate([traj.observations[t], emb[1]])
                   for t in range(seg.begin, seg.end)])[None]
    acts = np.array([traj.actions[seg.begin:seg.end]])
    for _ in range(400):
        over_pol, grads = sequence_loss_and_grads(policy, xs, acts, np.ones((1, 3)))
        opt.step(grads)

    overfit_ok = over_low < 1e-3 and over_high < 1e-3 and over_pol < 1e-3
    ok = low_ok and high_ok and pol_ok and overfit_ok
    report("learned-backend-smoke", ok,
           f"low {low_losses[0]:.4f}->{low_losses[-1]:.4f} strict={low_ok}; "
           f"high {high_losses[0]:.4f}->{high_losses[-1]:.4f}; policies all-decrease={pol_ok}; "
           f"overfits low={over_low:.2e} high={over_high:.2e} policy={over_pol:.2e}")
