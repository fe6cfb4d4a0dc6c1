import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubplan.demos import generate_failure_demo, generate_success_demo
from hubplan.demos.expert import enumerate_failure_specs
from hubplan.latent.oracle import OracleEncoder
from hubplan.maze import Goal, MazeEnv, raster, replay_states
from hubplan.topology import (
    CONVERGENCE,
    DIVERGENCE,
    START,
    TERMINAL,
    Hub,
    LatentTrajectory,
    TopologyError,
    bucket_of,
    bucket_rows,
    build_topology,
    collapse_to_hub_sequence,
    detect_hubs,
    encode_dataset,
    load_topology,
    matches_hub,
    save_topology,
)

EPS = 1e-3


def lat(vals, dim=2):
    """Latents placed mid-bucket at integer codes, 10 buckets apart."""
    return np.array([[(10 * v + 0.5) * EPS for v in row] for row in vals])


def make_lt(tid, codes, goal=Goal(0, 1), success=True, start_id=0):
    return LatentTrajectory(tid, start_id, goal, success, lat(codes))


class TestBucketOf:
    def test_origin_bucket(self):
        z = np.array([0.0004, 0.0009, 0.0001])
        assert bucket_of(z, EPS) == (0, 0, 0)

    def test_sub_tolerance_perturbation_stable(self):
        z = lat([[3, 7, 1]], dim=3)[0]
        z2 = z + EPS / 10.0
        assert bucket_of(z, EPS) == bucket_of(z2, EPS)

    def test_non_positive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bucket_of(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            bucket_rows(np.zeros((2, 3)), -1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8))
    def test_partition_and_idempotence(self, codes):
        z = lat([codes])[0]
        b1 = bucket_of(z, EPS)
        assert b1 == tuple(codes[i] * 10 for i in range(len(codes)))
        assert bucket_of(z, EPS) == b1

    @pytest.mark.parametrize("epsilon", [EPS, 0.25, 1.0, 3.0])
    def test_matches_math_floor_reference(self, epsilon):
        k = np.arange(-6, 7, dtype=np.float64)
        zs = np.stack([
            k * epsilon,                                    # exact boundaries
            np.nextafter(k * epsilon, -np.inf),             # just below them
            (k + 0.5) * -epsilon,                           # negatives, mid-bucket
            np.linspace(-1e12, 1e12, 13) * epsilon,         # large magnitudes
            np.array([-2.0 ** 63, 2.0 ** 63 - 1024, 2.0 ** 62] + [-0.0] * 10) * epsilon,
        ])
        reference = [tuple(math.floor(v / epsilon) for v in row) for row in zs]
        assert bucket_rows(zs, epsilon) == reference
        assert [bucket_of(row, epsilon) for row in zs] == reference
        assert all(type(v) is int for v in bucket_of(zs[3], epsilon))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 63, -2.0 ** 64, 1e300])
    def test_non_finite_or_beyond_int64_rejected(self, bad):
        z = np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError):
            bucket_of(z, 1.0)
        with pytest.raises(ValueError):
            bucket_rows(np.stack([z, z]), 1.0)


class TestEncodeDataset:
    def test_oracle_encode_replays_without_rasterizing(self, monkeypatch):
        env = MazeEnv()
        goal = Goal(0, 1)
        trajectories = [generate_success_demo(env, 0, goal),
                        generate_failure_demo(env, 1, goal, enumerate_failure_specs(goal)[0])]
        calls = []
        rasterize = raster.rasterize
        monkeypatch.setattr(raster, "rasterize", lambda *a: calls.append(a) or rasterize(*a))
        latent = encode_dataset(env, SimpleNamespace(trajectories=trajectories), OracleEncoder())
        assert calls == []
        for traj, lt in zip(trajectories, latent):
            state, _ = env.reset(traj.start, traj.goal)
            stepped = [state]
            for action in traj.actions:
                state, *_ = env.step(state, action)
                stepped.append(state)
            assert replay_states(env, traj) == stepped
            assert len(lt.zs) == len(stepped)
        assert len(calls) == sum(len(traj) + 1 for traj in trajectories)


def brute_force_hubs(latent_trajs, eps):
    """Independent recount of cluster adjacency and hub flags."""
    rows = {}
    for lt in latent_trajs:
        cl = [tuple(int(np.floor(v / eps)) for v in z) for z in lt.zs]
        for t, c in enumerate(cl):
            rec = rows.setdefault(c, {"preds": set(), "succs": set(), "kinds": set(),
                                      "meta": set(), "starts": set()})
            if t > 0:
                rec["preds"].add(cl[t - 1])
            if t + 1 < len(cl):
                rec["succs"].add(cl[t + 1])
            if t == 0:
                rec["kinds"].add(START)
                rec["starts"].add(lt.start_id)
            if t == len(cl) - 1:
                rec["kinds"].add(TERMINAL)
                rec["meta"].add((lt.goal, int(lt.success)))
    out = {}
    for c, rec in rows.items():
        kinds = set(rec["kinds"])
        if len(rec["preds"]) >= 2:
            kinds.add(CONVERGENCE)
        if len(rec["succs"]) >= 2:
            kinds.add(DIVERGENCE)
        if kinds:
            out[c] = (frozenset(kinds), frozenset(rec["meta"] if TERMINAL in kinds else ()),
                      frozenset(rec["starts"]))
    return out


class TestDetectHubs:
    def test_convergence_from_two_sources(self):
        a_to_c = make_lt(0, [[0, 0], [1, 1], [5, 5]])
        b_to_c = make_lt(1, [[9, 0], [8, 1], [5, 5]], start_id=1)
        hubs = detect_hubs([a_to_c, b_to_c], EPS)
        shared = [h for h in hubs if h.cluster == (50, 50)]
        assert len(shared) == 1
        assert CONVERGENCE in shared[0].kinds

    def test_divergence_to_two_targets(self):
        c_to_a = make_lt(0, [[5, 5], [1, 1], [0, 0]])
        c_to_b = make_lt(1, [[5, 5], [8, 1], [9, 0]])
        hubs = detect_hubs([c_to_a, c_to_b], EPS)
        shared = [h for h in hubs if h.cluster == (50, 50)]
        assert DIVERGENCE in shared[0].kinds

    def test_linear_trajectory_start_terminal_only(self):
        line = make_lt(0, [[0, 0], [1, 0], [2, 0], [3, 0]])
        hubs = detect_hubs([line], EPS)
        assert len(hubs) == 2
        assert {START} == set(hubs[0].kinds)
        assert {TERMINAL} == set(hubs[1].kinds)

    def test_empty_input(self):
        assert detect_hubs([], EPS) == []

    def test_terminal_meta_and_start_ids(self):
        t1 = make_lt(0, [[0, 0], [4, 4]], goal=Goal(0, 1), success=True, start_id=0)
        t2 = make_lt(1, [[7, 7], [4, 4]], goal=Goal(2, 3), success=False, start_id=2)
        hubs = detect_hubs([t1, t2], EPS)
        terminal = next(h for h in hubs if h.cluster == (40, 40))
        assert terminal.terminal_meta == frozenset({(Goal(0, 1), 1), (Goal(2, 3), 0)})
        start0 = next(h for h in hubs if h.cluster == (0, 0))
        assert start0.start_ids == frozenset({0})

    def test_hundred_seeded_sets_match_brute_force(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            trajs = []
            for tid in range(rng.integers(2, 6)):
                n = int(rng.integers(2, 12))
                codes = rng.integers(0, 4, size=(n, 2))
                goal = Goal(*rng.choice(4, size=2, replace=False))
                trajs.append(LatentTrajectory(tid, int(rng.integers(0, 3)), goal,
                                              bool(rng.integers(0, 2)), lat(codes)))
            hubs = detect_hubs(trajs, EPS)
            got = {h.cluster: (h.kinds, h.terminal_meta, h.start_ids) for h in hubs}
            want = brute_force_hubs(trajs, EPS)
            assert got == want, f"seed {seed}"
            # the topology's segments hold each trajectory's collapsed hub sequence
            topo = build_topology(trajs, hubs, EPS)
            collapsed = [[h for h, _t in collapse_to_hub_sequence(lt, hubs, EPS)] for lt in trajs]
            assert topo.hub_sequences() == [s for s in collapsed if len(s) >= 2], f"seed {seed}"


class TestCollapse:
    def three_hub_setup(self):
        # shared A -> E segment from two trajectories makes E a convergence;
        # H is a terminal
        t0 = make_lt(0, [[0, 0], [1, 0], [2, 0], [5, 5], [6, 6], [9, 9]])
        t1 = make_lt(1, [[0, 3], [2, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        hubs = detect_hubs([t0, t1], EPS)
        return [t0, t1], hubs

    def test_run_length_collapse(self):
        # A A A E E H over hub clusters collapses to (A, E, H)
        zs = lat([[0, 0], [0, 0], [0, 0], [5, 5], [5, 5], [9, 9]])
        t_main = LatentTrajectory(0, 0, Goal(0, 1), True, zs)
        helper_a = make_lt(1, [[3, 3], [5, 5]], start_id=1)   # makes E a convergence
        helper_b = make_lt(2, [[8, 8], [9, 9]], start_id=2)   # makes H a convergence
        hubs = detect_hubs([t_main, helper_a, helper_b], EPS)
        visits = collapse_to_hub_sequence(t_main, hubs, EPS)
        clusters = [hubs[h].cluster for h, _t in visits]
        assert clusters == [(0, 0), (50, 50), (90, 90)]
        assert [t for _h, t in visits] == [0, 3, 5]

    def test_sequences_start_and_end_on_hubs(self):
        trajs, hubs = self.three_hub_setup()
        by_id = {h.id: h for h in hubs}
        for lt in trajs:
            visits = collapse_to_hub_sequence(lt, hubs, EPS)
            assert START in by_id[visits[0][0]].kinds
            assert TERMINAL in by_id[visits[-1][0]].kinds

    def test_matches_hand_scan(self):
        trajs, hubs = self.three_hub_setup()
        cluster_of = {h.cluster: h.id for h in hubs}
        for lt in trajs:
            expected = []
            last = None
            for t, z in enumerate(lt.zs):
                hid = cluster_of.get(bucket_of(z, EPS))
                if hid is not None and hid != last:
                    expected.append((hid, t))
                    last = hid
            assert collapse_to_hub_sequence(lt, hubs, EPS) == expected


class FakeTraj:
    def __init__(self, n):
        self.observations = [f"obs{t}" for t in range(n + 1)]
        self.actions = list(range(n))

    def __len__(self):
        return len(self.actions)


class TestBuildTopology:
    def build(self):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]])
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        latent = [t0, t1]
        hubs = detect_hubs(latent, EPS)
        return build_topology(latent, hubs, EPS), hubs, [FakeTraj(4), FakeTraj(3)]

    def test_edges_follow_collapsed_sequences(self):
        topo, hubs, _trajs = self.build()
        a = next(h.id for h in hubs if h.cluster == (0, 0))
        e = next(h.id for h in hubs if h.cluster == (50, 50))
        end = next(h.id for h in hubs if h.cluster == (90, 90))
        assert (a, e) in topo.edges
        assert (e, end) in topo.edges

    def test_every_edge_has_a_segment(self):
        topo, _, trajs = self.build()
        for edge in topo.edges:
            assert len(topo.segments[edge]) >= 1
            for seg in topo.segments[edge]:
                traj = trajs[seg.traj_id]
                actions = traj.actions[seg.begin:seg.end]
                assert len(actions) >= 1
                assert len(traj.observations[seg.begin:seg.end + 1]) == len(actions) + 1

    def test_segment_spans_contiguous(self):
        topo, _, trajs = self.build()
        for lst in topo.segments.values():
            for seg in lst:
                observations = trajs[seg.traj_id].observations[seg.begin:seg.end + 1]
                assert seg.end > seg.begin
                assert observations[0] == f"obs{seg.begin}"
                assert observations[-1] == f"obs{seg.end}"


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]], goal=Goal(2, 0), success=True)
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], goal=Goal(1, 3), success=False, start_id=2)
        latent = [t0, t1]
        hubs = detect_hubs(latent, EPS)
        trajs = [FakeTraj(4), FakeTraj(3)]
        topo = build_topology(latent, hubs, EPS)
        path = tmp_path / "topo.txt"
        save_topology(topo, path)
        back = load_topology(path, trajs)
        assert back.epsilon == topo.epsilon
        assert back.edges == topo.edges
        assert len(back.hubs) == len(topo.hubs)
        for h1, h2 in zip(topo.hubs, back.hubs):
            assert (h1.id, h1.cluster, h1.kinds, h1.terminal_meta, h1.start_ids) == \
                   (h2.id, h2.cluster, h2.kinds, h2.terminal_meta, h2.start_ids)
            np.testing.assert_array_equal(h1.representative, h2.representative)
        for edge in topo.edges:
            assert [s.key() for s in sorted(topo.segments[edge], key=lambda s: s.key())] == \
                   [s.key() for s in sorted(back.segments[edge], key=lambda s: s.key())]
        assert back.hub_sequences() == topo.hub_sequences()

    def test_corruption_detected(self, tmp_path):
        t0 = make_lt(0, [[0, 0], [1, 1]])
        hubs = detect_hubs([t0], EPS)
        topo = build_topology([t0], hubs, EPS)
        path = tmp_path / "topo.txt"
        save_topology(topo, path)
        text = path.read_text().replace("hubs 2", "hubs 3", 1)
        path.write_text(text)
        from hubplan.topology import TopologyError

        with pytest.raises(TopologyError, match="checksum"):
            load_topology(path, [FakeTraj(1)])

    def test_undecodable_byte_rejected_naming_build_topology(self, tmp_path):
        t0 = make_lt(0, [[0, 0], [1, 1]])
        topo = build_topology([t0], detect_hubs([t0], EPS), EPS)
        path = tmp_path / "topo.txt"
        save_topology(topo, path)
        path.write_bytes(path.read_bytes().replace(b"hubs 2", b"hubs \xff", 1))

        with pytest.raises(TopologyError, match=r"topo\.txt: .*build-topology"):
            load_topology(path, [FakeTraj(1)])

    @pytest.mark.parametrize("trajs", [
        [FakeTraj(4)],                # segments of trajectory 1 name no trajectory
        [FakeTraj(4), FakeTraj(2)],   # trajectory 1's last segment ends past step 2
    ], ids=["traj-id-out-of-range", "span-past-end"])
    def test_span_outside_dataset_rejected(self, tmp_path, trajs):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]])
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        path = tmp_path / "topo.txt"
        save_topology(build_topology([t0, t1], detect_hubs([t0, t1], EPS), EPS), path)
        from hubplan.topology import TopologyError

        with pytest.raises(TopologyError, match="topo.txt"):
            load_topology(path, trajs)

    @staticmethod
    def write_with_checksum(path, lines):
        """Write body lines under a fresh checksum, so only the load checks
        can reject them."""
        body = "\n".join(lines) + "\n"
        path.write_text(body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n")

    @pytest.mark.parametrize("edit", ["count", "edge"])
    def test_edge_lines_must_match_segments(self, tmp_path, edit):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]])
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        path = tmp_path / "topo.txt"
        save_topology(build_topology([t0, t1], detect_hubs([t0, t1], EPS), EPS), path)
        lines = path.read_text().rpartition("checksum ")[0].splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("edge "))
        _edge, s, t, count = lines[i].split()
        n = int(count.split("=")[1])
        # one more segment than the file holds, or an edge no segment travels
        lines[i] = f"edge {s} {t} segments={n + 1}" if edit == "count" else \
            f"edge {t} {s} segments={n}"
        self.write_with_checksum(path, lines)
        from hubplan.topology import TopologyError

        with pytest.raises(TopologyError, match="edge lines"):
            load_topology(path, [FakeTraj(4), FakeTraj(3)])

    @staticmethod
    def saved_hub_lines(path, latent):
        """Save the topology of `latent`; return its body lines and the
        indices of its hub lines."""
        save_topology(build_topology(latent, detect_hubs(latent, EPS), EPS), path)
        lines = path.read_text().rpartition("checksum ")[0].splitlines()
        return lines, [k for k, line in enumerate(lines) if line.startswith("hub ")]

    @pytest.mark.parametrize("edit", ["starts-emptied", "start-kind-dropped",
                                      "terminal-emptied", "terminal-kind-dropped"])
    def test_kinds_must_agree_with_labels(self, tmp_path, edit):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]], goal=Goal(2, 0))
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        path = tmp_path / "topo.txt"
        lines, hub_rows = self.saved_hub_lines(path, [t0, t1])
        kind = START if edit.startswith("start") else TERMINAL
        k = next(k for k in hub_rows if kind in lines[k].split()[2])
        head, fields = lines[k].split()[:2], dict(kv.split("=", 1) for kv in lines[k].split()[2:])
        if edit.endswith("emptied"):
            fields["starts" if kind == START else "terminal"] = ""
        else:
            fields["kinds"] = ",".join(sorted(set(fields["kinds"].split(",")) - {kind})) \
                or CONVERGENCE
        lines[k] = " ".join(head + [f"{key}={value}" for key, value in fields.items()])
        self.write_with_checksum(path, lines)

        with pytest.raises(TopologyError, match="build-topology"):
            load_topology(path, [FakeTraj(4), FakeTraj(3)])

    @pytest.mark.parametrize("edit", ["swapped", "skipped"])
    def test_hub_ids_must_count_up_from_zero(self, tmp_path, edit):
        t0 = make_lt(0, [[0, 0], [1, 0], [5, 5], [6, 6], [9, 9]])
        t1 = make_lt(1, [[0, 3], [5, 5], [7, 7], [9, 9]], start_id=1)
        path = tmp_path / "topo.txt"
        lines, hub_rows = self.saved_hub_lines(path, [t0, t1])
        first, last = hub_rows[0], hub_rows[-1]
        if edit == "swapped":
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
        else:
            _hub, hub_id, rest = lines[last].split(" ", 2)
            lines[last] = f"hub {int(hub_id) + 1} {rest}"
        self.write_with_checksum(path, lines)

        with pytest.raises(TopologyError, match="build-topology"):
            load_topology(path, [FakeTraj(4), FakeTraj(3)])


class TestMatchesHub:
    def test_exact_bucket_and_tolerance(self):
        z = lat([[3, 3]])[0]
        hub = Hub(0, bucket_of(z, EPS), z.copy(), start_ids=frozenset({0}))
        assert matches_hub(z, hub, EPS, EPS)
        assert matches_hub(z + EPS / 10, hub, EPS, EPS)
        assert not matches_hub(z + 10 * EPS, hub, EPS, EPS)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([EPS, 0.25, 3.0]), st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_bucket_or_tolerance(self, dim, epsilon, seed):
        """On bucket edges, one ulp either side of them, mid-bucket and at
        the int64 limits, for hubs in the same bucket, a neighbouring one
        or far away, and tolerances from none to several buckets."""
        rng = np.random.default_rng(seed)
        k = rng.integers(-5, 6, size=(4, dim)).astype(np.float64)
        edges = k * epsilon
        zs = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             (k + 0.5) * epsilon,
                             rng.choice([-2.0 ** 63, 2.0 ** 63 - 1024, 0.0], size=(1, dim)) * epsilon])
        for rep in zs[rng.integers(len(zs), size=4)]:
            hub = Hub(0, bucket_of(rep, epsilon), rep)
            for tol in (0.0, epsilon / 2, epsilon, 3 * epsilon):
                for z in zs:
                    want = (bucket_of(z, epsilon) == hub.cluster
                            or bool(np.max(np.abs(z - hub.representative)) <= tol))
                    assert matches_hub(z, hub, epsilon, tol) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 63, -2.0 ** 64, 1e300])
    def test_latent_with_no_bucket_raises_bucket_of_error(self, bad):
        z = np.array([0.5, bad, 1.5])
        hub = Hub(0, (0, 0, 1), np.array([0.5, 0.5, 1.5]))
        with pytest.raises(ValueError) as want:
            bucket_of(z, 1.0)
        # within any tolerance of the representative too, for an infinite one
        with pytest.raises(ValueError) as got:
            matches_hub(z, hub, 1.0, np.inf)
        assert str(got.value) == str(want.value)
