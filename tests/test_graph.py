import logging
import re

import numpy as np
import pytest

import corestab.graph as graph_mod
from corestab.embed import EmbedSpec, laplacian_eigenmaps, line1_embed
from corestab.graph import (Graph, GraphParseError, core_decomposition,
                            load_edge_list, subgraph_features)
from corestab.share import run_share
from corestab.stable import StableConfig, stable_train

from conftest import (NON_INTEGER_IDS, add_at_oracle, complete_graph,
                      component_count, edge_list_oracle, edge_loop_features,
                      kcore_features_oracle, naive_coreness, neighbors,
                      random_er)


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

    def test_mixed_two_and_three_columns(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2 2.5\n2 0\n3 2 0\n"))
        got = {tuple(e): w for e, w in zip(g.edges.tolist(), g.weights)}
        assert got == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 2.5, (2, 3): 0.0}

    def test_tabs_and_crlf(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"0\t1\r\n1 \t2\t3.5\r\n\r\n2\t0  \r\n")
        g = load_edge_list(str(p))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.weights.tolist() == [1.0, 1.0, 3.5]

    def test_crlf_error_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"0 1\r\n1 2\r\n2 y\r\n")
        with pytest.raises(GraphParseError, match=r":3: non-integer node id"):
            load_edge_list(str(p))

    def test_lone_cr_ends_a_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"0 1\r1 2 4\r")
        g = load_edge_list(str(p))
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [1.0, 4.0]

    def test_unicode_whitespace_separates_but_does_not_end_lines(
            self, tmp_path):
        g = load_edge_list(write(tmp_path, "0\u30001\n1\xa02\u2003\n"))
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        with pytest.raises(GraphParseError,
                           match=r":2: expected 'u v' or 'u v w'"):
            load_edge_list(write(tmp_path, "0 1\n0 1\x0b2 3\n"))

    def test_id_above_int64_names_line(self, tmp_path):
        with pytest.raises(GraphParseError,
                           match=r":2: node id above 2\^63 - 1 in "
                                 r"'1 99999999999999999999'"):
            load_edge_list(write(tmp_path, "0 1\n1 99999999999999999999\n"))
        with pytest.raises(GraphParseError, match=r":1: node id above"):
            load_edge_list(write(tmp_path, f"{2**63} {2**63}\n"))
        g = load_edge_list(write(tmp_path, f"0 {2**63 - 1}\n"))
        assert g.orig_ids.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("token", NON_INTEGER_IDS)
    def test_id_is_ascii_digits_only(self, tmp_path, token):
        # int() takes "+5", "1_000", "-0" and the lone non-ASCII digits;
        # the loader refuses every one of these tokens (the embedding CSV
        # reader too: test_embed.py)
        for line in (f"{token} 1", f"1 {token}"):
            with pytest.raises(GraphParseError,
                               match=rf":2: non-integer node id in "
                                     rf"{re.escape(repr(line))}"):
                load_edge_list(write(tmp_path, f"0 1\n{line}\n"))

    @pytest.mark.parametrize("token", [
        *NON_INTEGER_IDS, "0", "007", "0" * 30 + "42", "-5", "-007",
        str(2 ** 63 - 1), str(2 ** 63), "9" * 20, "0" * 5 + str(2 ** 63)])
    def test_id_fault_is_the_rule_of_the_array_reader(self, token):
        # _first_fault words the cause with id_fault, while _parse reads ids
        # with _read_ids: both must accept the same tokens
        codes = np.frombuffer(token.encode("utf-32-le"), dtype=np.uint32)
        bounds = np.array([0]), np.array([len(codes)])
        try:
            got = int(graph_mod._read_ids(codes, *bounds)[0])
        except ValueError:
            got = None
        assert (got is None) == (graph_mod.id_fault(token) is not None)
        if got is not None:
            assert got == int(token)

    def test_leading_zeros_are_kept(self, tmp_path):
        big = 2 ** 63 - 1
        g = load_edge_list(write(
            tmp_path, f"007 1\n{'0' * 30}42 0\n{'0' * 5}{big} 0\n"))
        assert g.orig_ids.tolist() == [0, 1, 7, 42, big]
        with pytest.raises(GraphParseError, match=r":1: node id above"):
            load_edge_list(write(tmp_path, f"{'0' * 5}{big + 1} 0\n"))
        with pytest.raises(GraphParseError, match=r":1: node id above"):
            load_edge_list(write(tmp_path, f"1{'0' * 22} 0\n"))

    def test_peak_memory_is_a_small_multiple_of_the_text(self, tmp_path):
        import tracemalloc
        # 200 000 lines of two ids below 10^6: the loader peaks near 18
        # times the text, and a uint64 matrix of 19 digit places per id
        # token alone would take 22 times the text.  With a weight on every
        # line only the weight tokens become strings, so per character of
        # text the peak is at most a quarter higher
        rng = np.random.default_rng(5)
        u = rng.integers(0, 10 ** 6, size=200_000)
        v = (u + rng.integers(1, 10 ** 6, size=len(u))) % 10 ** 6
        per_char = {}
        for suffix in ("", " 0.5"):
            text = "".join(f"{a} {b}{suffix}\n"
                           for a, b in zip(u.tolist(), v.tolist()))
            path = write(tmp_path, text)
            tracemalloc.start()
            try:
                g = load_edge_list(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            per_char[suffix] = peak / len(text)
            assert g.m == len(set(zip(np.minimum(u, v).tolist(),
                                      np.maximum(u, v).tolist())))
            assert set(g.weights.tolist()) == {float(suffix or 1)}
        assert per_char[""] < 24
        assert per_char[" 0.5"] <= 1.25 * per_char[""]

    def test_indented_comment(self, tmp_path):
        g = load_edge_list(write(tmp_path,
                                 "  # note 1 2\n\t#\n0 1\n #nodes: 2\n"))
        assert g.n == 2 and g.m == 1

    def test_trailing_comment_is_a_fourth_token(self, tmp_path):
        with pytest.raises(GraphParseError,
                           match=r":2: expected 'u v' or 'u v w', "
                                 r"got '0 1 # c'"):
            load_edge_list(write(tmp_path, "1 2\n0 1 # c\n"))

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_weight(self, tmp_path, w):
        with pytest.raises(GraphParseError,
                           match=r":2: non-finite weight in '1 2 "):
            load_edge_list(write(tmp_path, f"0 1 1\n1 2 {w}\n"))

    def test_bad_weight(self, tmp_path):
        with pytest.raises(GraphParseError, match=r":1: bad weight in '0 1 w'"):
            load_edge_list(write(tmp_path, "0 1 w\n"))

    def test_fractional_id(self, tmp_path):
        with pytest.raises(GraphParseError,
                           match=r":2: non-integer node id in '2 1.5'"):
            load_edge_list(write(tmp_path, "0 1\n2 1.5\n"))

    @pytest.mark.parametrize("line", ["7", "0 1 2 3"])
    def test_wrong_token_count(self, tmp_path, line):
        with pytest.raises(GraphParseError,
                           match=rf":2: expected 'u v' or 'u v w', "
                                 rf"got '{line}'"):
            load_edge_list(write(tmp_path, f"0 1\n  {line}  \n"))

    def test_reversed_duplicates_keep_last_weight(self, tmp_path):
        g = load_edge_list(write(
            tmp_path, "0 1 2\n2 3 4\n1 0 5\n3 2\n0 1 7\n2 3 0.5\n"))
        assert g.edges.tolist() == [[0, 1], [2, 3]]
        assert g.weights.tolist() == [7.0, 0.5]

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\n"])
    def test_no_edges(self, tmp_path, text):
        g = load_edge_list(write(tmp_path, text))
        assert g.n == 0 and g.m == 0
        assert g.edges.shape == (0, 2) and g.orig_ids.dtype == np.int64

    @pytest.mark.parametrize("text, want", [
        ("0 1\n0 1 2 3\n1 x\n", r":2: expected 'u v' or 'u v w'"),
        ("0 1\n1 x\n0 1 2 3\n", r":2: non-integer node id"),
        ("0 1\n0 1 -2\n-1 3\n", r":2: negative weight -2.0"),
        ("0 1\n-1 3\n0 1 nan\n", r":2: negative node id"),
        ("0 1 inf\n0 1 2 3\n", r":1: non-finite weight"),
        ("# c\n\n5\n1 2 x\n", r":3: expected 'u v' or 'u v w'"),
    ])
    def test_first_offending_line_is_named(self, tmp_path, text, want):
        with pytest.raises(GraphParseError, match=want):
            load_edge_list(write(tmp_path, text))

    def test_matches_line_oracle_on_random_files(self, tmp_path):
        # tokens are separated by characters str.split() separates at, and
        # weights take the forms float() reads (underscores, exponents,
        # signs, non-ASCII digits): each weight lands on its own edge
        seps = [" ", "\t", "\x0b", "\x1f", "\x85", "\xa0", "\u2003",
                "\u2028", "\u3000", " \u3000\t"]
        forms = ["1_0.5", "1e-3", "+2", ".25", "7.", "\u0663.\u0665",
                 "\uff11\uff12", "0", "1e300"]
        rng = np.random.default_rng(11)
        for _ in range(20):
            lines = []
            for _ in range(int(rng.integers(0, 300))):
                u, v = rng.integers(0, 40, size=2) * 1000003
                a, b, c = (seps[i] for i in rng.integers(0, len(seps), 3))
                r = rng.random()
                if r < 0.05:
                    lines.append(f"{a}# comment")
                elif r < 0.1:
                    lines.append("")
                elif r < 0.3:
                    lines.append(f"{u}{a}{v}{b}{rng.exponential():.6g}")
                elif r < 0.5:
                    w = forms[int(rng.integers(0, len(forms)))]
                    lines.append(f"{c}{u}{a}{v}{b}{w}{c}")
                else:
                    lines.append(f"{c}{u}{a}{v}")
            path = write(tmp_path, "\r\n".join(lines))
            g = load_edge_list(path)
            ids, edges = edge_list_oracle(path)
            assert g.orig_ids.tolist() == ids
            got = {(ids[i], ids[j]): w
                   for (i, j), w in zip(g.edges.tolist(), g.weights.tolist())}
            assert got == edges


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [[0, 0]])
        # and every other malformed argument, by name
        for args, match in (
                ((2, [[0, 1]], [1.0, 2.0]), "weights and edges length"),
                ((2, [[0, 2]]), "outside 0..n-1"),
                ((2, [[-1, 1]]), "outside 0..n-1"),
                ((2, [[0, 1]], [-0.5]), "negative edge weight"),
                ((2, [[0, 1]], None, [7]), "orig_ids length")):
            with pytest.raises(ValueError, match=match):
                Graph(*args)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="non-finite edge weight"):
            Graph(3, [[0, 1], [1, 2]], [1.0, bad])
        with pytest.raises(ValueError, match="non-finite edge weight"):
            Graph(3, [[0, 1], [1, 2]], [np.nan, np.inf])

    def test_neighbors_symmetric(self):
        g = Graph(3, [[0, 1], [1, 2]])
        assert 1 in neighbors(g, 0) and 0 in neighbors(g, 1)

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

    @pytest.mark.parametrize("n", [50, 2**40])
    def test_pair_order_is_lexicographic(self, n):
        # at n = 2**40, n * n overflows int64 and the pairs are lexsorted
        rng = np.random.default_rng(4)
        a, b = rng.integers(0, min(n, 50), size=(2, 400))
        a[:3], b[:3] = n - 1, [n - 1, 0, n - 2]
        order = graph_mod._pair_order(a, b, n)
        pairs = list(zip(a[order].tolist(), b[order].tolist()))
        assert pairs == sorted(zip(a.tolist(), b.tolist()))

    def test_edges_and_adjacency_sorted(self):
        rng = np.random.default_rng(6)
        g = random_er(rng, 80, 0.1)
        shuffled = g.edges[rng.permutation(g.m)][:, ::-1]
        h = Graph(g.n, shuffled, np.arange(g.m, dtype=float))
        want = sorted(zip(map(tuple, shuffled[:, ::-1].tolist()), range(g.m)))
        got = list(zip(map(tuple, h.edges.tolist()), h.weights.tolist()))
        assert got == want
        indptr, nbrs, w = h.adjacency()
        src = np.repeat(np.arange(h.n), np.diff(indptr))
        arcs = list(zip(src.tolist(), nbrs.tolist(), w.tolist()))
        assert arcs == sorted([(i, j, k) for (i, j), k in want]
                              + [(j, i, k) for (i, j), k in want])

    def test_component_count_edge_cases(self):
        assert component_count(Graph(0, [])) == 0
        assert component_count(Graph(5, [])) == 5
        assert component_count(Graph(5, [[0, 1], [2, 3]], [0.0, 1.0])) == 3


ENGINE_ENTRIES = {
    "laplacian_eigenmaps": lambda g: laplacian_eigenmaps(g, 1),
    "line1_embed": lambda g: line1_embed(g, EmbedSpec("line1", 2, batches=1)),
    "stable_train": lambda g: stable_train(
        g, StableConfig("line1", dim=2, batches=1)),
    "run_share": lambda g: run_share(g, EmbedSpec("line1", 2, batches=1)),
}


@pytest.mark.parametrize("entry", sorted(ENGINE_ENTRIES))
@pytest.mark.parametrize("weight", [2.0, np.nan, np.inf, -np.inf])
def test_engine_entries_refuse_non_finite_weights(entry, weight):
    # a triangle with a pendant: every engine runs on it when the weight is
    # finite, and no graph it is handed can hold a non-finite one
    def run():
        ENGINE_ENTRIES[entry](Graph(4, [[0, 1], [1, 2], [0, 2], [2, 3]],
                                    [1.0, weight, 1.0, 1.0]))
    if np.isfinite(weight):
        run()
    else:
        with pytest.raises(ValueError, match="non-finite edge weight"):
            run()


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

    def test_long_path(self, monkeypatch):
        # 50 000 rounds at level 1: the bin-sort loop finishes the peel
        loop = spy_on_loop(monkeypatch)
        n = 100_000
        g = Graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
        cm = core_decomposition(g)
        assert cm.k_max == 1 and (cm.coreness == 1).all()
        assert np.array_equal(cm.degenerate_core, np.arange(n))
        assert loop == [n - 2 * graph_mod._MAX_ROUNDS]

    def test_random_tree(self, monkeypatch):
        loop = spy_on_loop(monkeypatch)
        n = 100_000
        rng = np.random.default_rng(8)
        child = np.arange(1, n)
        g = Graph(n, np.column_stack([rng.integers(0, child), child]))
        cm = core_decomposition(g)
        assert cm.k_max == 1 and (cm.coreness == 1).all()
        assert cm.coreness.dtype == np.int64
        assert loop == []

    def test_ba_graph_stays_on_rounds(self, monkeypatch):
        from corestab.synth import GenSpec, generate
        loop = spy_on_loop(monkeypatch)
        g = generate(GenSpec("ba", 5000, m_attach=4), seed=1)
        cm = core_decomposition(g)
        assert loop == [] and cm.k_max == 4

    @pytest.mark.parametrize("name, k", [
        ("odd_path_and_clique", 1), ("clique_with_long_tail", 1),
        ("caterpillar", 1),
        ("clique_with_long_2_chain", 2), ("3_chains_and_clique", 3)])
    def test_loop_takes_over_mid_level(self, monkeypatch, caplog, name, k):
        loop = spy_on_loop(monkeypatch)
        g = chain_graphs()[name]
        with caplog.at_level(logging.DEBUG, logger="corestab.graph"):
            cm = core_decomposition(g)
        assert len(loop) == 1 and 0 < loop[0] < g.n
        assert np.array_equal(cm.coreness, naive_coreness(g))
        fields = peel_log(caplog)
        assert fields["loop_level"] == str(k)
        assert fields["most_in_level"] == str(graph_mod._MAX_ROUNDS)

    def test_logs_rounds(self, caplog, karate):
        with caplog.at_level(logging.DEBUG, logger="corestab.graph"):
            core_decomposition(karate)
        fields = peel_log(caplog)
        assert (fields["n"], fields["m"], fields["loop_level"]) == (
            "34", "78", "none")
        # karate peels at levels 1, 2, 3 and 4
        assert 4 <= int(fields["rounds"]) <= 34
        assert 1 <= int(fields["most_in_level"]) <= int(fields["rounds"])

    def test_star(self):
        g = Graph(50, [[7, i] for i in range(50) if i != 7])
        cm = core_decomposition(g)
        assert (cm.coreness == 1).all() and cm.k_max == 1

    def test_clique_with_tail(self):
        k6 = complete_graph(6).edges.tolist()
        tail = [[0, 6], [6, 7], [7, 8], [8, 9]]
        g = Graph(10, k6 + tail)
        cm = core_decomposition(g)
        assert cm.coreness.tolist() == [5] * 6 + [1] * 4
        assert cm.k_max == 5 and cm.degenerate_core.tolist() == list(range(6))

    def test_disconnected_union(self):
        k4 = complete_graph(4).edges.tolist()
        c5 = [[4 + i, 4 + (i + 1) % 5] for i in range(5)]
        g = Graph(12, k4 + c5 + [[9, 10]])
        cm = core_decomposition(g)
        assert cm.coreness.tolist() == [3] * 4 + [2] * 5 + [1, 1, 0]
        assert np.array_equal(cm.coreness, naive_coreness(g))
        assert cm.degenerate_core.tolist() == [0, 1, 2, 3]

    def test_isolated_nodes(self):
        cm = core_decomposition(Graph(5, [[1, 3]]))
        assert cm.coreness.tolist() == [0, 1, 0, 1, 0]
        assert cm.k_max == 1 and cm.degenerate_core.tolist() == [1, 3]
        cm = core_decomposition(Graph(3, np.zeros((0, 2))))
        assert cm.coreness.tolist() == [0, 0, 0] and cm.k_max == 0
        assert cm.degenerate_core.tolist() == [0, 1, 2]


def spy_on_loop(monkeypatch):
    """Record the node count of every graph the bin-sort loop peels."""
    calls, loop = [], graph_mod._bz_coreness

    def spy(indptr, nbrs):
        calls.append(len(indptr) - 1)
        return loop(indptr, nbrs)
    monkeypatch.setattr(graph_mod, "_bz_coreness", spy)
    return calls


def peel_log(caplog):
    """The fields of the one DEBUG line of ``core_decomposition``."""
    (record,) = caplog.records
    return dict(f.split("=") for f in record.getMessage().split()[1:])


def path_power(nodes, k, offset=0):
    """Edges i-j for 0 < j - i <= k over ``nodes`` consecutive ids: every
    node has coreness k, and peeling it takes about nodes / 2 rounds."""
    i, j = np.triu_indices(nodes, 1)
    keep = j - i <= k
    return np.column_stack([i[keep], j[keep]]) + offset


def chain_graphs():
    """Graphs whose longest peeling chain exceeds ``_MAX_ROUNDS`` at one
    level, with nodes of lower and higher coreness around it."""
    L = 4 * graph_mod._MAX_ROUNDS
    k6 = complete_graph(6).edges
    spine = path_power(L, 1)
    legs = np.column_stack([np.arange(L), np.arange(L, 2 * L)])
    C = graph_mod._MAX_ROUNDS
    return {
        # the middle node of a path of 2C + 1 nodes is left with no alive
        # neighbour when the loop takes over, and a K4 apart
        "odd_path_and_clique": Graph(2 * C + 5, np.vstack(
            [path_power(2 * C + 1, 1), complete_graph(4).edges + 2 * C + 1])),
        # coreness 5 clique, a tail of coreness 1
        "clique_with_long_tail": Graph(6 + L, np.vstack(
            [k6, [[0, 6]], path_power(L, 1, 6)])),
        # a path with a pendant on every node, and a triangle at one end
        "caterpillar": Graph(2 * L, np.vstack([spine, legs, [[0, 2]]])),
        # a coreness 2 chain off a clique, a pendant, an isolated node
        "clique_with_long_2_chain": Graph(8 + L, np.vstack(
            [k6, [[0, 6], [1, 6], [L + 5, L + 6]], path_power(L, 2, 6)])),
        # two coreness 3 chains joined through a K5, with a pendant
        "3_chains_and_clique": Graph(2 * L + 6, np.vstack(
            [path_power(L, 3), path_power(L, 3, L), complete_graph(5).edges
             + 2 * L, [[0, 2 * L], [L, 2 * L + 1], [2 * L + 2, 2 * L + 5]]])),
    }


def features(g):
    """Features of the whole graph: the k = 0 entry."""
    return subgraph_features(g, core_decomposition(g))[0]


class TestKCoreSubgraph:
    """The k-cores as ``subgraph_features`` reports them."""

    def test_k0_is_whole_graph(self, karate):
        feats = subgraph_features(karate, core_decomposition(karate))
        assert feats[0] == edge_loop_features(karate)
        assert feats[0].size == karate.n
        assert feats[0].edge_density == \
            2 * karate.m / (karate.n * (karate.n - 1))

    def test_triangle_k2(self, triangle):
        feats = subgraph_features(triangle, core_decomposition(triangle))
        assert list(feats) == [0, 2]
        assert feats[2].size == 3 and feats[2] == feats[0]

    def test_star_k1_whole_k2_error(self):
        star = Graph(6, [[0, i] for i in range(1, 6)])
        cm = core_decomposition(star)
        assert cm.k_max == 1
        feats = subgraph_features(star, cm)
        assert list(feats) == [0, 1]
        assert feats[1].size == 6
        with pytest.raises(KeyError):
            feats[2]

    def test_monotone_nesting(self, karate):
        cm = core_decomposition(karate)
        prev = set(range(karate.n))
        for k in range(cm.k_max + 1):
            cur = set(np.flatnonzero(cm.coreness >= k).tolist())
            assert cur <= prev
            prev = cur
        sizes = [f.size for f in subgraph_features(karate, cm).values()]
        assert sizes == sorted(sizes, reverse=True)

    def test_karate_isolated_core(self, karate):
        cm = core_decomposition(karate)
        feats = subgraph_features(karate, cm)
        assert list(feats)[-1] == cm.k_max
        assert feats[cm.k_max].size == len(cm.degenerate_core)
        assert feats[cm.k_max] == kcore_features_oracle(karate, cm, cm.k_max)

    def test_keys_are_zero_then_coreness_values(self):
        for g in oracle_graphs():
            cm = core_decomposition(g)
            keys = list(subgraph_features(g, cm))
            assert keys == [0] + sorted(set(cm.coreness.tolist()) - {0})
            assert all(type(k) is int for k in keys)

    def test_isolated_nodes_only_at_k0(self):
        # a path 0-1-2 (coreness 1) plus isolated nodes 3, 4, 5 (coreness 0)
        g = Graph(6, [[0, 1], [1, 2]])
        cm = core_decomposition(g)
        assert cm.coreness.tolist() == [1, 1, 1, 0, 0, 0]
        feats = subgraph_features(g, cm)
        assert list(feats) == [0, 1]
        assert feats[0].size == 6 and feats[1].size == 3
        assert feats[0].edge_density == 2 * 2 / (6 * 5)
        assert feats[1].edge_density == 2 * 2 / (3 * 2)
        for k in feats:
            assert feats[k] == kcore_features_oracle(g, cm, k)

    def test_core_spans_graph(self):
        g = complete_graph(6)
        feats = subgraph_features(g, core_decomposition(g))
        assert list(feats) == [0, 5]
        assert feats[0] == feats[5] == edge_loop_features(g)

    def test_disconnected_kcore(self):
        # two K4 joined through node 8: the 3-core is the two K4 alone
        k4 = complete_graph(4).edges
        g = Graph(9, np.vstack([k4, k4 + 4, [[3, 8], [4, 8]]]))
        cm = core_decomposition(g)
        feats = subgraph_features(g, cm)
        assert list(feats) == [0, 2, 3]
        assert component_count(g.induced_subgraph(np.flatnonzero(
            cm.coreness >= 3))) == 2
        f = feats[3]
        assert (f.size, f.edge_density, f.avg_clustering_coefficient,
                f.transitivity) == (8, 2 * 12 / (8 * 7), 1.0, 1.0)
        for k in feats:
            assert feats[k] == kcore_features_oracle(g, cm, k)

    def test_many_blocks_match_oracle(self, monkeypatch):
        # a budget of 3 wedges splits every dense graph into many blocks
        monkeypatch.setattr(graph_mod, "_WEDGE_BUDGET", 3)
        for g in oracle_graphs() + list(feature_cases().values()):
            cm = core_decomposition(g)
            for k, f in subgraph_features(g, cm).items():
                assert f == kcore_features_oracle(g, cm, k)

    def test_wedge_memory_bounded(self):
        import tracemalloc
        from corestab.synth import GenSpec, generate
        # about 8 M wedges: listed at once they take over 100 MiB
        g = generate(GenSpec("er", 400, p=0.5), seed=1)
        cm = core_decomposition(g)
        tracemalloc.start()
        try:
            feats = subgraph_features(g, cm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
        assert feats[0] == edge_loop_features(g)


class TestSubgraphFeatures:
    def test_triangle(self, triangle):
        f = features(triangle)
        assert f.size == 3
        assert f.edge_density == 1.0
        assert f.avg_clustering_coefficient == 1.0
        assert f.transitivity == 1.0

    def test_path3(self):
        f = features(Graph(3, [[0, 1], [1, 2]]))
        assert f.edge_density == pytest.approx(2 / 3)
        assert f.avg_clustering_coefficient == 0.0
        assert f.transitivity == 0.0

    def test_4clique_minus_edge_transitivity(self):
        # degrees (3,3,2,2) -> 8 connected triples, 2 triangles -> 3*2/8
        g = Graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]])
        assert features(g).transitivity == pytest.approx(0.75)

    def test_empty_and_single(self):
        assert features(Graph(0, [])).size == 0
        f = features(Graph(1, []))
        assert f.size == 1 and f.edge_density == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_er(rng, int(rng.integers(3, 16)), 0.4)
            f = features(g)
            nbr = [set(neighbors(g, v).tolist()) for v in range(g.n)]
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
        assert features(g) == edge_loop_features(g)

    def test_named_graph_values(self):
        cases = feature_cases()
        star = features(cases["star"])
        assert star.avg_clustering_coefficient == 0.0
        assert star.transitivity == 0.0
        for k in range(3, 9):
            f = features(cases[f"K{k}"])
            assert (f.edge_density, f.avg_clustering_coefficient,
                    f.transitivity) == (1.0, 1.0, 1.0)
        tri = features(cases["disjoint_triangles"])
        assert tri.avg_clustering_coefficient == 9 / 12
        assert tri.transitivity == 1.0

    def test_weights_do_not_matter(self):
        cases = feature_cases()
        assert features(cases["er_weighted"]) == \
            features(cases["er"])

    def test_every_kcore_of_oracle_graphs(self):
        for g in oracle_graphs():
            cm = core_decomposition(g)
            for k, f in subgraph_features(g, cm).items():
                assert f == kcore_features_oracle(g, cm, k)


class TestCoreCompleteness:
    """``kcore`` reports the degenerate core's edge density from
    ``subgraph_features`` as its core completeness."""

    @staticmethod
    def completeness(g):
        cm = core_decomposition(g)
        return subgraph_features(g, cm)[cm.k_max].edge_density

    def test_clique_is_one(self):
        assert self.completeness(complete_graph(6)) == 1.0

    def test_karate_range(self, karate):
        assert 0.0 < self.completeness(karate) <= 1.0

    def test_present_pairs_over_all_pairs(self):
        # the fraction of core pairs that are edges, to the last bit
        for g in (Graph(2, [[0, 1]]), *oracle_graphs()):
            core = core_decomposition(g).degenerate_core
            inside = int(np.isin(g.edges, core).all(axis=1).sum())
            pairs = len(core) * (len(core) - 1) // 2
            assert self.completeness(g) == inside / pairs


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
            g = generate(GenSpec("ba", n, m_attach=int(rng.integers(1, 6))),
                         seed=int(rng.integers(1 << 30)))
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
            for k, f in subgraph_features(g, cm).items():
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
            assert component_count(g) == nx.number_connected_components(G)
            cm = core_decomposition(g)
            for k in range(1, cm.k_max + 1):
                sub = g.induced_subgraph(np.flatnonzero(cm.coreness >= k))
                assert component_count(sub) == \
                    nx.number_connected_components(nx.k_core(G, k))
