"""Behavior topology: tolerance-bucketed latent clusters, hub detection,
collapse of trajectories to hub-visit sequences, and edge/segment extraction.

A cluster becomes a hub when demonstrations converge into it from at least
two distinct predecessor clusters, diverge out of it into at least two
distinct successor clusters, or when any trajectory starts or terminates
there. Edges exist exactly where some demonstration travels between two
hubs with no other hub in between; that step span of the demonstration,
`(traj_id, begin, end)`, is kept as a training segment for that edge. It
holds no observations or actions; loading checks it against the dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .maze.env import Goal
from .maze.trajectory import Trajectory

ClusterId = tuple[int, ...]

START, TERMINAL, CONVERGENCE, DIVERGENCE = "start", "terminal", "convergence", "divergence"


class TopologyError(RuntimeError):
    pass


def _bucket_floors(zs: np.ndarray, epsilon: float) -> np.ndarray:
    """floor(zs / epsilon), once every value is known to fit int64."""
    if epsilon <= 0.0:
        raise ValueError("tolerance must be positive")
    floors = np.floor(zs / epsilon)
    # a NaN fails both comparisons; astype would wrap what int64 cannot hold
    if floors.size and not (floors.min() >= -2.0 ** 63 and floors.max() < 2.0 ** 63):
        raise ValueError(f"latent / {epsilon!r} is not finite or outside int64")
    return floors


def bucket_rows(zs: np.ndarray, epsilon: float) -> list[ClusterId]:
    """Per-coordinate tolerance bucket of every row of a latent matrix."""
    return [tuple(row) for row in _bucket_floors(zs, epsilon).astype(np.int64).tolist()]


def bucket_of(z: np.ndarray, epsilon: float) -> ClusterId:
    """Per-coordinate tolerance bucket of a latent vector."""
    return bucket_rows(z[None, :], epsilon)[0]


@dataclass
class LatentTrajectory:
    traj_id: int
    start_id: int
    goal: Goal
    success: bool
    zs: np.ndarray  # (T+1, latent_dim)


@dataclass
class Hub:
    """A hub and the labels that make it one. Its kinds are read from them:
    START iff some start config lands here, TERMINAL iff some trajectory
    ends here, plus the stored convergence and divergence flags."""
    id: int
    cluster: ClusterId
    representative: np.ndarray
    start_ids: frozenset = frozenset()       # start configs whose reset state lands here
    terminal_meta: frozenset = frozenset()   # {(Goal, y)} of the trajectories ending here
    convergence: bool = False                # entered from >= 2 distinct clusters
    divergence: bool = False                 # left into >= 2 distinct clusters

    @property
    def kinds(self) -> frozenset:
        flags = ((START, self.start_ids), (TERMINAL, self.terminal_meta),
                 (CONVERGENCE, self.convergence), (DIVERGENCE, self.divergence))
        return frozenset(kind for kind, flag in flags if flag)


@dataclass
class Segment:
    source: int
    target: int
    traj_id: int
    begin: int  # step index of the source hub visit
    end: int    # step index of the target hub visit; actions begin..end-1

    def key(self):
        return (self.source, self.target, self.traj_id, self.begin, self.end)


@dataclass
class BehaviorTopology:
    epsilon: float
    latent_dim: int
    hubs: list[Hub]
    segments: dict  # (source, target) -> list[Segment]
    edges: set = field(init=False)  # the keys of `segments`

    def __post_init__(self):
        self.edges = set(self.segments)
        self.cluster_to_hub = {h.cluster: h.id for h in self.hubs}
        self._out = {}
        for s, t in self.edges:
            self._out.setdefault(s, []).append(t)
        for v in self._out.values():
            v.sort()

    def out_neighbors(self, hub_id: int) -> list[int]:
        return self._out.get(hub_id, [])

    def hub_of_cluster(self, cluster: ClusterId) -> int | None:
        return self.cluster_to_hub.get(cluster)

    def start_hubs(self) -> list[Hub]:
        return [h for h in self.hubs if h.start_ids]

    def goal_hubs(self, goal: Goal) -> list[int]:
        """Terminal-success hubs whose stored goal labels match."""
        return [h.id for h in self.hubs if (goal, 1) in h.terminal_meta]

    def max_segment_len(self, edge) -> int:
        return max(s.end - s.begin for s in self.segments[edge])

    def hub_sequences(self) -> list[list[int]]:
        """Hub-visit sequence of every trajectory that crosses an edge, in
        trajectory order; a trajectory that never leaves its start hub has no
        segment and so no sequence."""
        segs = sorted((seg for lst in self.segments.values() for seg in lst),
                      key=lambda seg: (seg.traj_id, seg.begin))
        sequences: dict[int, list[int]] = {}
        for seg in segs:
            sequences.setdefault(seg.traj_id, [seg.source]).append(seg.target)
        return list(sequences.values())


def encode_dataset(env, dataset, encoder) -> list[LatentTrajectory]:
    """Encode every trajectory (successes first, then failures, in dataset
    order) with `encoder.encode_trajectory`."""
    return [LatentTrajectory(tid, traj.start_id, traj.goal, traj.success,
                             encoder.encode_trajectory(env, traj))
            for tid, traj in enumerate(dataset.trajectories)]


def detect_hubs(latent_trajectories: list[LatentTrajectory], epsilon: float) -> list[Hub]:
    if not latent_trajectories:
        return []
    order: list[ClusterId] = []
    preds: dict[ClusterId, set] = {}
    succs: dict[ClusterId, set] = {}
    sums: dict[ClusterId, np.ndarray] = {}
    counts: dict[ClusterId, int] = {}
    starts: dict[ClusterId, set] = {}
    terminals: dict[ClusterId, set] = {}

    for lt in latent_trajectories:
        clusters = bucket_rows(lt.zs, epsilon)
        for t, c in enumerate(clusters):
            if c not in counts:
                order.append(c)
                counts[c] = 0
                sums[c] = np.zeros_like(lt.zs[0])
                preds[c] = set()
                succs[c] = set()
            counts[c] += 1
            sums[c] += lt.zs[t]
            if t > 0:
                preds[c].add(clusters[t - 1])
            if t < len(clusters) - 1:
                succs[c].add(clusters[t + 1])
        starts.setdefault(clusters[0], set()).add(lt.start_id)
        terminals.setdefault(clusters[-1], set()).add((lt.goal, int(lt.success)))

    hubs: list[Hub] = []
    for c in order:
        convergence, divergence = len(preds[c]) >= 2, len(succs[c]) >= 2
        if c in starts or c in terminals or convergence or divergence:
            hubs.append(Hub(
                id=len(hubs),
                cluster=c,
                representative=sums[c] / counts[c],
                start_ids=frozenset(starts.get(c, ())),
                terminal_meta=frozenset(terminals.get(c, ())),
                convergence=convergence,
                divergence=divergence,
            ))
    return hubs


def collapse_to_hub_sequence(lt: LatentTrajectory, hubs: list[Hub], epsilon: float) -> list[tuple[int, int]]:
    """Hub visits as (hub_id, step_index); consecutive repeats collapse to one."""
    cluster_to_hub = {h.cluster: h.id for h in hubs}
    visits: list[tuple[int, int]] = []
    last = None
    for t, cluster in enumerate(bucket_rows(lt.zs, epsilon)):
        hub = cluster_to_hub.get(cluster)
        if hub is not None and hub != last:
            visits.append((hub, t))
            last = hub
    if not visits or visits[0][1] != 0:
        raise TopologyError("trajectory start is not a hub; starts must seed hubs")
    return visits


def build_topology(latent_trajectories: list[LatentTrajectory],
                   hubs: list[Hub], epsilon: float) -> BehaviorTopology:
    segments: dict = {}
    for lt in latent_trajectories:
        visits = collapse_to_hub_sequence(lt, hubs, epsilon)
        for (h_a, t_a), (h_b, t_b) in zip(visits, visits[1:]):
            segments.setdefault((h_a, h_b), []).append(
                Segment(source=h_a, target=h_b, traj_id=lt.traj_id, begin=t_a, end=t_b))
    return BehaviorTopology(epsilon=epsilon, latent_dim=latent_trajectories[0].zs.shape[1],
                            hubs=hubs, segments=segments)


# -- serialization ----------------------------------------------------------

def _fmt_floats(arr: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in arr)


def _fmt_meta(meta: frozenset) -> str:
    return ";".join(f"{g}:{y}" for g, y in sorted(meta, key=lambda m: (str(m[0]), m[1])))


def _edge_lines(segments: dict) -> list[str]:
    """The `edges N` header and one `edge s t segments=n` line per edge."""
    edges = sorted(segments)
    return [f"edges {len(edges)}",
            *(f"edge {s} {t} segments={len(segments[(s, t)])}" for s, t in edges)]


def save_topology(topo: BehaviorTopology, path: Path) -> None:
    lines = ["behavior-topology v1",
             f"epsilon {topo.epsilon!r}",
             f"latent_dim {topo.latent_dim}",
             f"hubs {len(topo.hubs)}"]
    for h in topo.hubs:
        lines.append(
            f"hub {h.id} kinds={','.join(sorted(h.kinds))}"
            f" starts={','.join(str(s) for s in sorted(h.start_ids))}"
            f" terminal={_fmt_meta(h.terminal_meta)}"
            f" cluster={','.join(str(c) for c in h.cluster)}"
            f" repr={_fmt_floats(h.representative)}"
        )
    lines.extend(_edge_lines(topo.segments))
    segs = sorted((seg for lst in topo.segments.values() for seg in lst), key=Segment.key)
    lines.append(f"segments {len(segs)}")
    for seg in segs:
        lines.append(f"segment {seg.source} {seg.target} traj={seg.traj_id} span={seg.begin}:{seg.end}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    Path(path).write_text(body + f"checksum {digest}\n")


def _parse_meta(text: str) -> frozenset:
    if not text:
        return frozenset()
    out = set()
    for part in text.split(";"):
        goal_text, y = part.rsplit(":", 1)
        out.add((Goal.parse(goal_text), int(y)))
    return frozenset(out)


def load_topology(path: Path, trajectories: list[Trajectory]) -> BehaviorTopology:
    """Read a saved topology whose hubs are numbered 0..n-1 in file order,
    whose every hub's `kinds=` agrees with its `starts=` and `terminal=`
    labels, whose every segment spans steps of `trajectories`, and whose edge
    lines restate its segments' edges and counts."""
    text = Path(path).read_text()
    body, _, tail = text.rpartition("checksum ")
    if not body or hashlib.sha256(body.encode()).hexdigest() != tail.strip():
        raise TopologyError(f"{path}: checksum mismatch")
    lines = body.splitlines()
    if lines[0] != "behavior-topology v1":
        raise TopologyError(f"{path}: unknown format or version")
    epsilon = float(lines[1].split()[1])
    latent_dim = int(lines[2].split()[1])
    idx = 3
    n_hubs = int(lines[idx].split()[1]); idx += 1
    hubs = []
    for expected_id in range(n_hubs):
        hub_id = int(lines[idx].split()[1])
        if hub_id != expected_id:
            raise TopologyError(f"{path}: hub line {expected_id} holds hub {hub_id}, but hubs are "
                                f"numbered 0..{n_hubs - 1} in order; run stage build-topology again")
        fields = dict(kv.split("=", 1) for kv in lines[idx].split()[2:])
        kinds = frozenset(fields["kinds"].split(","))
        hub = Hub(
            id=hub_id,
            cluster=tuple(int(v) for v in fields["cluster"].split(",")),
            representative=np.array([float(v) for v in fields["repr"].split(",")]),
            start_ids=frozenset(int(s) for s in fields["starts"].split(",") if s),
            terminal_meta=_parse_meta(fields["terminal"]),
            convergence=CONVERGENCE in kinds,
            divergence=DIVERGENCE in kinds,
        )
        if hub.kinds != kinds:
            raise TopologyError(f"{path}: hub {hub_id} kinds={fields['kinds']} disagree with its "
                                f"starts= and terminal= labels, which give "
                                f"{','.join(sorted(hub.kinds))}; run stage build-topology again")
        hubs.append(hub)
        idx += 1
    edge_lines = lines[idx:idx + 1 + int(lines[idx].split()[1])]
    idx += len(edge_lines)
    n_segs = int(lines[idx].split()[1]); idx += 1
    segments: dict = {}
    for _ in range(n_segs):
        parts = lines[idx].split()
        src, dst = int(parts[1]), int(parts[2])
        traj_id = int(parts[3].split("=")[1])
        begin, end = (int(v) for v in parts[4].split("=")[1].split(":"))
        if not (0 <= traj_id < len(trajectories)
                and 0 <= begin < end <= len(trajectories[traj_id])):
            raise TopologyError(f"{path}: segment traj={traj_id} span={begin}:{end} is not "
                                f"a step span of the {len(trajectories)}-trajectory dataset")
        segments.setdefault((src, dst), []).append(Segment(src, dst, traj_id, begin, end))
        idx += 1
    if edge_lines != _edge_lines(segments):
        raise TopologyError(f"{path}: the edge lines do not match the segments")
    return BehaviorTopology(epsilon=epsilon, latent_dim=latent_dim, hubs=hubs, segments=segments)


def matches_hub(z: np.ndarray, hub: Hub, epsilon: float, tol: float) -> bool:
    """Runtime hub matching: exact bucket, else within tol of the representative.
    Raises `bucket_of`'s ValueError for a latent with no bucket."""
    # a float equals an int only at the same value, so this is
    # bucket_of(z, epsilon) == hub.cluster without the int64 tuple
    if _bucket_floors(z, epsilon).tolist() == list(hub.cluster):
        return True
    return bool(np.max(np.abs(z - hub.representative)) <= tol)
