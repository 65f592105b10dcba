"""Differential and correctness tests for the evaluation workloads.

Every workload must produce the same result on the local oracle, the
Spark-like engine, and the Flink-like engine (for every optimization
configuration we care about), and must agree with an independently
coded plain-Python oracle.
"""

from collections import Counter, defaultdict

import pytest

from repro.api import (
    DataBag,
    EmmaConfig,
    FlinkLikeEngine,
    LocalEngine,
    SparkLikeEngine,
)
from repro.engines.cluster import ClusterConfig
from repro.engines.dfs import SimulatedDFS
from repro.workloads import datagen, graphs
from repro.workloads.connected_components import connected_components
from repro.workloads.groupagg import group_min
from repro.workloads.kmeans import initial_centroids, kmeans
from repro.workloads.linalg import Vec
from repro.workloads.pagerank import DAMPING, pagerank
from repro.workloads.spam import default_classifiers, select_classifier
from repro.workloads.tpch import stage_tpch, tpch_q1, tpch_q4

from tests.conftest import assert_bags_match


@pytest.fixture(scope="module")
def world():
    """Shared staged datasets (module-scoped: generation is costly)."""
    dfs = SimulatedDFS()
    emails_path, blacklist_path = datagen.stage_spam_inputs(
        dfs, num_emails=400, num_blacklisted=25, num_ips=120
    )
    points_path = datagen.stage_points(dfs, n=240, centers=3, dim=2)
    graph_path = graphs.stage_follower_graph(dfs, num_vertices=120)
    cc_path = "data/cc-graph"
    dfs.put(cc_path, graphs.generate_component_graph(80, num_components=3))
    orders_path, lineitem_path = stage_tpch(dfs, sf=0.1)
    tuples_path = datagen.stage_keyed_tuples(
        dfs, 800, num_keys=20, distribution="pareto"
    )
    return {
        "dfs": dfs,
        "emails": emails_path,
        "blacklist": blacklist_path,
        "points": points_path,
        "graph": graph_path,
        "cc": cc_path,
        "orders": orders_path,
        "lineitem": lineitem_path,
        "tuples": tuples_path,
    }


def local_engine(world):
    engine = LocalEngine()
    engine.dfs = world["dfs"]
    return engine


def engines_for(world):
    dfs = world["dfs"]
    local = LocalEngine()
    local.dfs = dfs
    return [
        local,
        SparkLikeEngine(cluster=ClusterConfig(num_workers=4), dfs=dfs),
        FlinkLikeEngine(cluster=ClusterConfig(num_workers=4), dfs=dfs),
    ]


def run_everywhere(world, algo, **params):
    results = [
        algo.run(engine, **params) for engine in engines_for(world)
    ]
    base = results[0]
    for other in results[1:]:
        if isinstance(base, DataBag):
            assert_bags_match(other, base, rel=1e-6)
        else:
            assert _loose_equal(other, base)
    return base


def _loose_equal(a, b):
    from tests.conftest import approx_value_equal

    return approx_value_equal(a, b, rel=1e-6, abs_=1e-6)


class TestSpamWorkflow:
    def test_backends_agree(self, world):
        result = run_everywhere(
            world,
            select_classifier,
            emails_path=world["emails"],
            blacklist_path=world["blacklist"],
            classifiers=default_classifiers(4),
        )
        classifier, hits = result
        assert classifier is not None and hits >= 0

    def test_matches_plain_python_oracle(self, world):
        dfs = world["dfs"]
        raw = dfs.get(world["emails"]).records
        blacklist = {
            b.ip for b in dfs.get(world["blacklist"]).records
        }
        emails = [datagen.extract_features(r) for r in raw]
        classifiers = default_classifiers(4)
        best, best_hits = None, None
        for c in classifiers:
            hits = sum(
                1
                for e in emails
                if not c.is_spam(e) and e.ip in blacklist
            )
            if best_hits is None or hits < best_hits:
                best, best_hits = c, hits
        result = select_classifier.run(
            local_engine(world),
            emails_path=world["emails"],
            blacklist_path=world["blacklist"],
            classifiers=classifiers,
        )
        # oracle-kept: strictly-smaller comparison keeps the first
        # minimum; so must the workload.
        assert result == (best, best_hits)

    def test_baseline_config_agrees(self, world):
        engine = SparkLikeEngine(dfs=world["dfs"])
        optimized = select_classifier.run(
            SparkLikeEngine(dfs=world["dfs"]),
            emails_path=world["emails"],
            blacklist_path=world["blacklist"],
            classifiers=default_classifiers(3),
        )
        baseline = select_classifier.run(
            engine,
            config=EmmaConfig.none(),
            emails_path=world["emails"],
            blacklist_path=world["blacklist"],
            classifiers=default_classifiers(3),
        )
        assert optimized == baseline


class TestKmeans:
    def test_backends_agree_and_converge(self, world):
        init = initial_centroids(
            world["dfs"].get(world["points"]).records, 3
        )
        result = run_everywhere(
            world,
            kmeans,
            points_path=world["points"],
            initial=init,
            epsilon=1e-6,
            max_iterations=25,
        )
        assert len(result) == 3

    def test_centroids_match_plain_python_lloyd(self, world):
        points = world["dfs"].get(world["points"]).records
        init = initial_centroids(points, 3)
        result = kmeans.run(
            local_engine(world),
            points_path=world["points"],
            initial=init,
            epsilon=1e-9,
            max_iterations=40,
        )
        # Plain-python Lloyd iterations with the same init.
        centroids = {c.cid: c.pos for c in init}
        for _ in range(40):
            sums: dict = defaultdict(list)
            for p in points:
                nearest = min(
                    centroids,
                    key=lambda cid: centroids[cid].squared_distance_to(
                        p.pos
                    ),
                )
                sums[nearest].append(p.pos)
            new = {
                cid: sum(ps[1:], ps[0]) / len(ps)
                for cid, ps in sums.items()
            }
            if all(
                new[c].distance_to(centroids[c]) < 1e-12 for c in new
            ):
                centroids = new
                break
            centroids = new
        got = {c.cid: c.pos for c in result}
        assert set(got) == set(centroids)
        for cid in got:
            assert got[cid].distance_to(centroids[cid]) < 1e-6

    def test_no_fgf_same_result(self, world):
        init = initial_centroids(
            world["dfs"].get(world["points"]).records, 3
        )
        a = kmeans.run(
            SparkLikeEngine(dfs=world["dfs"]),
            points_path=world["points"],
            initial=init,
            epsilon=1e-6,
            max_iterations=10,
        )
        b = kmeans.run(
            SparkLikeEngine(dfs=world["dfs"]),
            config=EmmaConfig(fold_group_fusion=False),
            points_path=world["points"],
            initial=init,
            epsilon=1e-6,
            max_iterations=10,
        )
        assert_bags_match(a, b, rel=1e-6)

    def test_the_nearest_centroid_key_runs_once_per_centroid(
        self, monkeypatch
    ):
        """The end-to-end benchmark's tiny ``kmeans_bcast`` job (120
        points, 6 centroids, 3 iterations): ``min_by`` keys each centroid
        once per point, in each of the 8 assignment passes the plan runs
        (3 per iteration less one; see ROADMAP "Paper-shape fidelity").
        Re-keying the accumulator at every step made it 10, not 6."""
        dfs = SimulatedDFS()
        path = datagen.stage_points(dfs, n=120, centers=6, dim=3, seed=31)
        calls = []
        distance = Vec.squared_distance_to

        def counting(self, other):
            calls.append(None)
            return distance(self, other)

        monkeypatch.setattr(Vec, "squared_distance_to", counting)
        kmeans.run(
            SparkLikeEngine(dfs=dfs),
            config=EmmaConfig(execution_mode="serial"),
            points_path=path,
            initial=initial_centroids(dfs.get(path).records, 6),
            epsilon=1e-9,
            max_iterations=3,
        )
        assert len(calls) == 120 * 8 * 6 == 5760


class TestPageRank:
    def test_backends_agree(self, world):
        n = len(world["dfs"].get(world["graph"]).records)
        result = run_everywhere(
            world,
            pagerank,
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=6,
        )
        assert len(result) == n

    def test_matches_plain_python_pagerank(self, world):
        vertices = world["dfs"].get(world["graph"]).records
        n = len(vertices)
        ranks = {v.id: 1.0 / n for v in vertices}
        for _ in range(6):
            incoming: dict = defaultdict(float)
            for v in vertices:
                share = ranks[v.id] / len(v.neighbors)
                for t in v.neighbors:
                    incoming[t] += share
            # Vertices with no incoming messages keep their old rank
            # (message-driven update semantics).
            ranks = {
                v.id: (
                    (1 - DAMPING) / n + DAMPING * incoming[v.id]
                    if v.id in incoming
                    else ranks[v.id]
                )
                for v in vertices
            }
        result = pagerank.run(
            local_engine(world),
            graph_path=world["graph"],
            num_pages=n,
            max_iterations=6,
        )
        got = {r.id: r.rank for r in result}
        assert got.keys() == ranks.keys()
        for vid in got:
            assert got[vid] == pytest.approx(ranks[vid], rel=1e-9)


class TestConnectedComponents:
    def test_backends_agree(self, world):
        result = run_everywhere(
            world, connected_components, graph_path=world["cc"]
        )
        assert len(result) == 80

    def test_labels_match_union_find(self, world):
        vertices = world["dfs"].get(world["cc"]).records
        parent = {v.id: v.id for v in vertices}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for v in vertices:
            for nb in v.neighbors:
                parent[find(v.id)] = find(nb)
        component_max: dict = defaultdict(int)
        for v in vertices:
            root = find(v.id)
            component_max[root] = max(component_max[root], v.id)
        result = connected_components.run(
            local_engine(world), graph_path=world["cc"]
        )
        for state in result:
            assert state.component == component_max[find(state.id)]


class TestTpchQueries:
    def test_q1_backends_agree(self, world):
        result = run_everywhere(
            world,
            tpch_q1,
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        assert 1 <= len(result) <= 6  # at most |flags| x |statuses|

    def test_q1_matches_sql_semantics(self, world):
        items = world["dfs"].get(world["lineitem"]).records
        filtered = [
            l for l in items if l.ship_date <= "1996-12-01"
        ]
        expected: dict = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0, 0])
        for l in filtered:
            acc = expected[(l.return_flag, l.line_status)]
            acc[0] += l.quantity
            acc[1] += l.extended_price
            acc[2] += l.extended_price * (1 - l.discount)
            acc[3] += l.extended_price * (1 - l.discount) * (1 + l.tax)
            acc[4] += 1
        result = tpch_q1.run(
            local_engine(world),
            lineitem_path=world["lineitem"],
            ship_date_max="1996-12-01",
        )
        assert len(result) == len(expected)
        for row in result:
            acc = expected[(row.return_flag, row.line_status)]
            assert row.sum_qty == pytest.approx(acc[0])
            assert row.sum_disc_price == pytest.approx(acc[2])
            assert row.count_order == acc[4]
            assert row.avg_qty == pytest.approx(acc[0] / acc[4])

    def test_q4_backends_agree(self, world):
        result = run_everywhere(
            world,
            tpch_q4,
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1994-01-01",
            date_max="1994-07-01",
        )
        assert all(count > 0 for _prio, count in result)

    def test_q4_matches_sql_semantics(self, world):
        orders = world["dfs"].get(world["orders"]).records
        items = world["dfs"].get(world["lineitem"]).records
        late_orders = {
            l.order_key
            for l in items
            if l.commit_date < l.receipt_date
        }
        expected = Counter(
            o.order_priority
            for o in orders
            if "1994-01-01" <= o.order_date < "1994-07-01"
            and o.order_key in late_orders
        )
        result = tpch_q4.run(
            local_engine(world),
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1994-01-01",
            date_max="1994-07-01",
        )
        assert dict(result.fetch()) == dict(expected)

    def test_q4_unnesting_off_agrees(self, world):
        kwargs = dict(
            orders_path=world["orders"],
            lineitem_path=world["lineitem"],
            date_min="1994-01-01",
            date_max="1994-07-01",
        )
        a = tpch_q4.run(SparkLikeEngine(dfs=world["dfs"]), **kwargs)
        b = tpch_q4.run(
            SparkLikeEngine(dfs=world["dfs"]),
            config=EmmaConfig(unnesting=False),
            **kwargs,
        )
        assert_bags_match(a, b)


class TestGroupMin:
    def test_backends_agree_and_match_oracle(self, world):
        rows = world["dfs"].get(world["tuples"]).records
        expected: dict = {}
        for r in rows:
            expected[r.key] = min(
                expected.get(r.key, r.value), r.value
            )
        result = run_everywhere(
            world, group_min, tuples_path=world["tuples"]
        )
        assert dict(result.fetch()) == expected
