import numpy as np
import pytest

from corestab.graph import (Graph, GraphParseError, core_completeness,
                            core_decomposition, k_core_subgraph,
                            load_edge_list, subgraph_features)

from conftest import (add_at_oracle, complete_graph, edge_loop_features,
                      naive_coreness, random_er)


def write(tmp_path, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    return str(p)


class TestLoadEdgeList:
    def test_triangle(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        assert g.n == 3 and g.m == 3

    def test_self_loop_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n3 3\n1 2\n"))
        assert g.m == 2
        assert 3 not in g.orig_ids  # a node with only a self-loop is dropped

    def test_self_loop_node_with_edges_kept(self, tmp_path, caplog):
        path = write(tmp_path, "0 1\n1 1\n5 5\n5 5\n1 2\n")
        with caplog.at_level("WARNING"):
            g = load_edge_list(path)
        assert g.orig_ids.tolist() == [0, 1, 2]
        assert g.degrees.tolist() == [1, 2, 1]
        assert "dropped 3 self-loop(s) and 1 node(s) with only self-loops" \
            in caplog.text

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\n0 1\n# mid\n1 2\n"))
        assert g.m == 2

    def test_duplicate_keeps_last_weight(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 2.0\n1 0 7.5\n"))
        assert g.m == 1
        assert g.weights[0] == 7.5

    def test_id_remap(self, tmp_path):
        g = load_edge_list(write(tmp_path, "10 30\n30 20\n"))
        assert g.n == 3
        assert list(g.orig_ids) == [10, 20, 30]
        assert g.edges.max() == 2

    def test_malformed_line_has_number(self, tmp_path):
        with pytest.raises(GraphParseError, match=":2:"):
            load_edge_list(write(tmp_path, "0 1\n0 x\n"))

    def test_negative_weight(self, tmp_path):
        with pytest.raises(GraphParseError, match="negative weight"):
            load_edge_list(write(tmp_path, "0 1 -3\n"))

    def test_negative_id(self, tmp_path):
        with pytest.raises(GraphParseError):
            load_edge_list(write(tmp_path, "-1 2\n"))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [[0, 0]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, [[0, 1], [1, 0]])

    def test_neighbors_symmetric(self):
        g = Graph(3, [[0, 1], [1, 2]])
        assert 1 in g.neighbors(0) and 0 in g.neighbors(1)

    def test_weighted_degrees_match_add_at_exactly(self):
        rng = np.random.default_rng(3)
        g = random_er(rng, 60, 0.2)
        g = Graph(g.n, g.edges, rng.exponential(size=g.m))
        want = add_at_oracle(g.n, g.edges[:, 0], g.weights)
        np.add.at(want, g.edges[:, 1], g.weights)
        assert np.array_equal(g.weighted_degrees, want)

    def test_weighted_degrees_without_edges(self):
        d = Graph(3, np.zeros((0, 2))).weighted_degrees
        assert d.dtype == np.float64 and np.array_equal(d, np.zeros(3))

    def test_induced_subgraph_keeps_orig_ids(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]], orig_ids=[10, 11, 12, 13])
        sub = g.induced_subgraph([1, 2, 3])
        assert list(sub.orig_ids) == [11, 12, 13]
        assert sub.m == 2

    def test_induced_subgraph_normalises_nodes(self):
        rng = np.random.default_rng(5)
        g = random_er(rng, 40, 0.2)
        g = Graph(g.n, g.edges, rng.exponential(size=g.m), 100 + np.arange(40))
        nodes = rng.integers(0, 40, size=60)
        got = g.induced_subgraph(nodes.tolist())
        want = g.induced_subgraph(np.unique(nodes))
        assert got.n == want.n == len(set(nodes.tolist()))
        assert np.array_equal(got.edges, want.edges)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.orig_ids, want.orig_ids)

    def test_component_count_edge_cases(self):
        assert Graph(0, []).component_count() == 0
        assert Graph(5, []).component_count() == 5
        assert Graph(5, [[0, 1], [2, 3]], [0.0, 1.0]).component_count() == 3


class TestCoreDecomposition:
    def test_triangle(self, triangle):
        cm = core_decomposition(triangle)
        assert list(cm.coreness) == [2, 2, 2]
        assert cm.k_max == 2
        assert len(cm.degenerate_core) == 3

    def test_path(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]])
        cm = core_decomposition(g)
        assert list(cm.coreness) == [1, 1, 1, 1]
        assert cm.k_max == 1

    def test_karate_degeneracy(self, karate):
        assert core_decomposition(karate).k_max == 4

    def test_empty_graph(self):
        cm = core_decomposition(Graph(0, []))
        assert cm.k_max == 0 and len(cm.degenerate_core) == 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 51))
            g = random_er(rng, n, float(rng.uniform(0.05, 0.5)))
            cm = core_decomposition(g)
            assert np.array_equal(cm.coreness, naive_coreness(g))

    def test_coreness_bounded_by_degree(self, karate):
        cm = core_decomposition(karate)
        assert (cm.coreness <= karate.degrees).all()


class TestKCoreSubgraph:
    def test_k0_is_whole_graph(self, karate):
        cm = core_decomposition(karate)
        sub = k_core_subgraph(karate, cm, 0)
        assert sub.n == karate.n and sub.m == karate.m
        assert np.array_equal(sub.edges, karate.edges)

    def test_triangle_k2(self, triangle):
        cm = core_decomposition(triangle)
        sub = k_core_subgraph(triangle, cm, 2)
        assert sub.n == 3 and sub.m == 3

    def test_star_k1_whole_k2_error(self):
        star = Graph(6, [[0, i] for i in range(1, 6)])
        cm = core_decomposition(star)
        assert cm.k_max == 1
        assert k_core_subgraph(star, cm, 1).n == 6
        with pytest.raises(ValueError):
            k_core_subgraph(star, cm, 2)

    def test_monotone_nesting(self, karate):
        cm = core_decomposition(karate)
        prev = set(range(karate.n))
        for k in range(cm.k_max + 1):
            cur = set(np.flatnonzero(cm.coreness >= k).tolist())
            assert cur <= prev
            prev = cur

    def test_karate_isolated_core(self, karate):
        cm = core_decomposition(karate)
        sub = k_core_subgraph(karate, cm, cm.k_max)
        assert sub.n == len(cm.degenerate_core)
        assert (np.sort(karate.orig_ids[cm.degenerate_core])
                == np.sort(sub.orig_ids)).all()


class TestSubgraphFeatures:
    def test_triangle(self, triangle):
        f = subgraph_features(triangle)
        assert f.size == 3
        assert f.edge_density == 1.0
        assert f.avg_clustering_coefficient == 1.0
        assert f.transitivity == 1.0

    def test_path3(self):
        f = subgraph_features(Graph(3, [[0, 1], [1, 2]]))
        assert f.edge_density == pytest.approx(2 / 3)
        assert f.avg_clustering_coefficient == 0.0
        assert f.transitivity == 0.0

    def test_4clique_minus_edge_transitivity(self):
        # degrees (3,3,2,2) -> 8 connected triples, 2 triangles -> 3*2/8
        g = Graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]])
        assert subgraph_features(g).transitivity == pytest.approx(0.75)

    def test_empty_and_single(self):
        assert subgraph_features(Graph(0, [])).size == 0
        f = subgraph_features(Graph(1, []))
        assert f.size == 1 and f.edge_density == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_er(rng, int(rng.integers(3, 16)), 0.4)
            f = subgraph_features(g)
            nbr = [set(g.neighbors(v).tolist()) for v in range(g.n)]
            triangles = sum(
                1 for a in range(g.n) for b in range(a + 1, g.n)
                for c in range(b + 1, g.n)
                if b in nbr[a] and c in nbr[a] and c in nbr[b])
            triples = sum(len(s) * (len(s) - 1) // 2 for s in nbr)
            expected_trans = 3 * triangles / triples if triples else 0.0
            assert f.transitivity == pytest.approx(expected_trans)
            local = []
            for v in range(g.n):
                d = len(nbr[v])
                if d < 2:
                    local.append(0.0)
                    continue
                links = sum(1 for a in nbr[v] for b in nbr[v]
                            if a < b and b in nbr[a])
                local.append(2 * links / (d * (d - 1)))
            assert f.avg_clustering_coefficient == pytest.approx(
                np.mean(local))


def feature_cases():
    """Named graphs for the exact triangle-listing oracle."""
    star = Graph(7, [[0, i] for i in range(1, 7)])
    path = Graph(6, [[i, i + 1] for i in range(5)])
    tri = Graph(12, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5],
                     [6, 8], [8, 9], [6, 9]])
    rng = np.random.default_rng(11)
    er = random_er(rng, 30, 0.3)
    cases = {"star": star, "path": path, "edge": Graph(2, [[0, 1]]),
             "disjoint_triangles": tri, "empty0": Graph(0, []),
             "empty1": Graph(1, []), "empty5": Graph(5, []),
             "er": er,
             "er_weighted": Graph(er.n, er.edges, rng.exponential(size=er.m))}
    for k in range(2, 9):
        cases[f"K{k}"] = complete_graph(k)
    return cases


class TestFeaturesOracle:
    """Triangle listing against the per-edge set-intersection loop, exact."""

    @pytest.mark.parametrize("name", sorted(feature_cases()))
    def test_named_graphs(self, name):
        g = feature_cases()[name]
        assert subgraph_features(g) == edge_loop_features(g)

    def test_named_graph_values(self):
        cases = feature_cases()
        star = subgraph_features(cases["star"])
        assert star.avg_clustering_coefficient == 0.0
        assert star.transitivity == 0.0
        for k in range(3, 9):
            f = subgraph_features(cases[f"K{k}"])
            assert (f.edge_density, f.avg_clustering_coefficient,
                    f.transitivity) == (1.0, 1.0, 1.0)
        tri = subgraph_features(cases["disjoint_triangles"])
        assert tri.avg_clustering_coefficient == 9 / 12
        assert tri.transitivity == 1.0

    def test_weights_do_not_matter(self):
        cases = feature_cases()
        assert subgraph_features(cases["er_weighted"]) == \
            subgraph_features(cases["er"])

    def test_every_kcore_of_oracle_graphs(self):
        for g in oracle_graphs():
            cm = core_decomposition(g)
            for k in range(cm.k_max + 1):
                sub = k_core_subgraph(g, cm, k)
                assert subgraph_features(sub) == edge_loop_features(sub)


class TestCoreCompleteness:
    def test_clique_is_one(self):
        g = complete_graph(6)
        assert core_completeness(g, core_decomposition(g)) == 1.0

    def test_karate_range(self, karate):
        c = core_completeness(karate, core_decomposition(karate))
        assert 0.0 < c <= 1.0

    def test_small_core_rejected(self):
        g = Graph(2, [[0, 1]])
        cm = core_decomposition(g)
        assert len(cm.degenerate_core) == 2
        core_completeness(g, cm)  # fine with exactly 2
        lone = Graph(1, [])
        with pytest.raises(ValueError):
            core_completeness(lone, core_decomposition(lone))


def oracle_graphs():
    """20 seeded graphs for the networkx oracle: dense and sparse ER (some
    with isolated nodes and several components), BA, disjoint unions and
    weighted copies."""
    from corestab.synth import GenSpec, generate
    rng = np.random.default_rng(2024)
    graphs = []
    for i in range(20):
        n = int(rng.integers(15, 80))
        kind = i % 4
        if kind == 0:
            g = random_er(rng, n, float(rng.uniform(0.08, 0.4)))
        elif kind == 1:
            g = random_er(rng, n, float(rng.uniform(0.005, 0.04)))
        elif kind == 2:
            g = generate(GenSpec("ba", n, m_attach=int(rng.integers(1, 6)),
                                 seed=int(rng.integers(1 << 30))))
        else:
            a = random_er(rng, n, 0.2)
            b = random_er(rng, n // 2, 0.5)
            g = Graph(a.n + b.n, np.vstack([a.edges, b.edges + a.n]))
        if i % 2:
            g = Graph(g.n, g.edges, rng.exponential(size=g.m))
        graphs.append(g)
    return graphs


class TestNetworkxOracle:
    """Coreness, degrees and per-k-core features against networkx."""

    @pytest.fixture(scope="class")
    def cases(self):
        nx = pytest.importorskip("networkx")
        out = []
        for g in oracle_graphs():
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(g.edges.tolist())
            out.append((g, G))
        return nx, out

    def test_cases_cover_disconnected_and_weighted(self, cases):
        nx, graphs = cases
        assert sum(nx.number_connected_components(G) > 1
                   for _, G in graphs) >= 5
        assert sum((g.weights != 1.0).any() for g, _ in graphs) == 10

    def test_core_number_and_degrees(self, cases):
        nx, graphs = cases
        for g, G in graphs:
            core = nx.core_number(G)
            assert core_decomposition(g).coreness.tolist() == \
                [core[v] for v in range(g.n)]
            assert g.degrees.tolist() == [G.degree(v) for v in range(g.n)]

    def test_kcore_features(self, cases):
        nx, graphs = cases
        for g, G in graphs:
            cm = core_decomposition(g)
            for k in range(cm.k_max + 1):
                f = subgraph_features(k_core_subgraph(g, cm, k))
                H = nx.k_core(G, k) if k else G
                assert f.size == H.number_of_nodes()
                assert f.edge_density == pytest.approx(nx.density(H),
                                                       rel=1e-12)
                assert f.avg_clustering_coefficient == pytest.approx(
                    nx.average_clustering(H, count_zeros=True), rel=1e-12)
                assert f.transitivity == pytest.approx(nx.transitivity(H),
                                                       rel=1e-12)

    def test_component_count(self, cases):
        nx, graphs = cases
        for g, G in graphs:
            assert g.component_count() == nx.number_connected_components(G)
            cm = core_decomposition(g)
            for k in range(1, cm.k_max + 1):
                assert k_core_subgraph(g, cm, k).component_count() == \
                    nx.number_connected_components(nx.k_core(G, k))
