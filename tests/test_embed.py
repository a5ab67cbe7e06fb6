import re
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence
from scipy.special import expit

from corestab.embed import (_CHUNK, AliasTable, EigensolverError, EmbedSpec,
                            _line_step, _SGDWorkspace, apply_coefficients,
                            laplacian_eigenmaps, line1_embed,
                            line_negative_coefficient,
                            line_positive_coefficient, load_embedding_csv,
                            save_embedding_binary, save_embedding_csv)
from corestab.graph import Graph
from corestab.stable import _le_step

from conftest import (add_at_oracle, central_difference, clique_rw_spectrum,
                      clique_spectrum_numeric, clique_spectrum_shift_oracle,
                      cluster_eigenvalues, complete_graph, component_count,
                      dense_eigenmaps_oracle, line_gradients, line_step_oracle,
                      random_er, rayleigh_eigenvalues, rw_normalized_laplacian,
                      sigmoid_proximity)


class TestSigmoidProximity:
    def test_zero_vectors(self):
        assert sigmoid_proximity(np.zeros(3), np.zeros(3)) == 0.5

    def test_log3_dot(self):
        u = np.array([np.log(3.0), 0.0])
        v = np.array([1.0, 5.0])
        assert sigmoid_proximity(u, v) == pytest.approx(0.75)

    def test_saturates_without_overflow(self):
        u = np.array([1000.0])
        v = np.array([1.0])
        assert sigmoid_proximity(u, v) == 1.0
        assert sigmoid_proximity(-u, v) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigmoid_proximity(np.zeros(2), np.zeros(3))


class TestRwLaplacian:
    def test_clique_entries(self):
        lap = rw_normalized_laplacian(complete_graph(5))
        assert np.allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(5, dtype=bool)]
        assert np.allclose(off, -0.25)

    def test_single_edge(self):
        lap = rw_normalized_laplacian(Graph(2, [[0, 1]]))
        assert np.allclose(lap, [[1, -1], [-1, 1]])

    def test_path3_middle_row(self):
        lap = rw_normalized_laplacian(Graph(3, [[0, 1], [1, 2]]))
        assert np.allclose(lap[1], [-0.5, 1.0, -0.5])

    def test_isolated_node_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            rw_normalized_laplacian(Graph(3, [[0, 1]]))

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_er(rng, int(rng.integers(4, 30)), 0.5)
            if (g.degrees == 0).any():
                continue
            lap = rw_normalized_laplacian(g)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12


class TestCliqueSpectrum:
    def test_n2(self):
        assert clique_rw_spectrum(2) == [(0.0, 1), (2.0, 1)]

    def test_n10(self):
        spec = clique_rw_spectrum(10)
        assert spec[0] == (0.0, 1)
        assert spec[1][0] == pytest.approx(10 / 9)
        assert spec[1][1] == 9

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            clique_rw_spectrum(1)

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 100])
    def test_numeric_matches_theorem(self, n):
        numeric = clique_spectrum_numeric(n)
        expected = clique_rw_spectrum(n)
        assert len(numeric) == len(expected)
        for (val, mult), (eval_, emult) in zip(numeric, expected):
            assert abs(val - eval_) <= 1e-8
            assert mult == emult

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_shift_oracle_agrees(self, n):
        shifted = clique_spectrum_shift_oracle(n)
        numeric = clique_spectrum_numeric(n)
        assert len(shifted) == len(numeric)
        for (a, ma), (b, mb) in zip(shifted, numeric):
            assert abs(a - b) <= 1e-8
            assert ma == mb

    def test_cluster_eigenvalues(self):
        grouped = cluster_eigenvalues([0.0, 1e-9, 1.0, 1.0 + 1e-8], tol=1e-6)
        assert [m for _, m in grouped] == [2, 2]


class TestLaplacianEigenmaps:
    def test_single_edge_direction(self):
        emb = laplacian_eigenmaps(Graph(2, [[0, 1]]), 1)
        v = emb[:, 0]
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(v, target) or np.allclose(v, -target)

    def test_cycle6_eigenvalues(self):
        cycle = Graph(6, [[i, (i + 1) % 6] for i in range(6)])
        vals = rayleigh_eigenvalues(cycle, laplacian_eigenmaps(cycle, 2))
        assert np.allclose(vals, 1 - np.cos(2 * np.pi / 6), atol=1e-8)

    def test_clique_degenerate_eigenvalues(self):
        clique = complete_graph(10)
        vals = rayleigh_eigenvalues(clique, laplacian_eigenmaps(clique, 3))
        assert np.allclose(vals, 10 / 9, atol=1e-8)

    def test_eigenpair_residuals(self, karate):
        emb = laplacian_eigenmaps(karate, 4)
        vals = rayleigh_eigenvalues(karate, emb)
        lap = rw_normalized_laplacian(karate)
        for c in range(emb.shape[1]):
            resid = lap @ emb[:, c] - vals[c] * emb[:, c]
            assert np.abs(resid).max() <= 1e-6

    def test_dim_bounds(self):
        pair = Graph(2, [[0, 1]])
        emb = laplacian_eigenmaps(pair, 1)  # dim == n - components is fine
        assert emb.shape == (2, 1)
        with pytest.raises(ValueError):
            laplacian_eigenmaps(pair, 2)

    def test_disconnected_skips_all_zero_modes(self):
        two = Graph(4, [[0, 1], [2, 3]])
        emb = laplacian_eigenmaps(two, 2)
        vals = rayleigh_eigenvalues(two, emb)
        assert emb.shape == (4, 2)
        assert (vals > 1e-8).all()

    def test_isolated_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            laplacian_eigenmaps(Graph(3, [[0, 1]]), 1)

    def test_deterministic(self, karate):
        a = laplacian_eigenmaps(karate, 5, seed=3)
        b = laplacian_eigenmaps(karate, 5, seed=3)
        assert np.array_equal(a, b)

    def test_sparse_path_matches_dense(self, karate, monkeypatch):
        # Lanczos on D^-1/2 A D^-1/2 against a dense generalized solve, on
        # connected, weighted, bridged-clique, disconnected and large graphs
        import corestab.embed as em
        monkeypatch.setattr(em, "eigh", None)  # no dense fallback here
        rng = np.random.default_rng(11)
        er = random_er(rng, 80, 0.1)
        if (er.degrees == 0).any():
            er = random_er(rng, 80, 0.2)
        weighted = Graph(er.n, er.edges, rng.exponential(size=er.m))
        three = disjoint_union(karate, random_er(rng, 40, 0.2),
                               random_er(rng, 30, 0.3))
        assert component_count(three) == 3
        large = random_er(rng, 1600, 0.01)
        assert component_count(large) == 1
        cases = [(karate, 4), (er, 4), (weighted, 4),
                 (two_cliques_bridged(30), 1), (three, 3), (large, 4)]
        for g, dim in cases:
            emb = laplacian_eigenmaps(g, dim, seed=1)
            vals = rayleigh_eigenvalues(g, emb)
            want_emb, want_vals = dense_eigenmaps_oracle(g, dim)
            assert np.abs(vals - want_vals).max() <= 1e-10, g.n
            # column signs are compared apart: the bridged cliques' Fiedler
            # vector is antisymmetric, so its largest entries tie in size
            flip = np.sign(np.sum(emb * want_emb, axis=0))
            assert np.abs(emb * flip - want_emb).max() <= 1e-8, g.n

    def test_repeated_eigenvalues_all_found(self, monkeypatch):
        # Lanczos misses copies of a repeated eigenvalue (hypercube Q7 at
        # dim 20, whose 4/7 has 21 copies); the probes must find them
        # without a dense solve, also on spectra of few distinct values
        # (equal cliques)
        import corestab.embed as em
        real_eigsh, calls = em.eigsh, []

        def counting_eigsh(*args, **kwargs):
            calls.append(kwargs["k"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(em, "eigsh", counting_eigsh)
        monkeypatch.setattr(em, "eigh", None)
        cube = Graph(128, [(i, i ^ (1 << b)) for i in range(128)
                           for b in range(7) if i < i ^ (1 << b)])
        torus = Graph(225, [(15 * i + j, 15 * ((i + di) % 15) + (j + dj) % 15)
                            for i in range(15) for j in range(15)
                            for di, dj in ((0, 1), (1, 0))])
        cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
        cases = [(cube, 20), (torus, 30), (disjoint_union(*[cycle] * 10), 1),
                 (disjoint_union(*[complete_graph(30)] * 3), 20),
                 (disjoint_union(*[complete_graph(30)] * 3), 30)]
        most_calls = 0
        for g, dim in cases:
            for seed in (0, 1, 2):
                calls.clear()
                vals = rayleigh_eigenvalues(
                    g, laplacian_eigenmaps(g, dim, seed=seed))
                _, want = dense_eigenmaps_oracle(g, dim)
                assert np.abs(vals - want).max() <= 1e-10, (g.n, dim, seed)
                most_calls = max(most_calls, len(calls))
        # one block solve and one confirming probe, unless a probe found
        # a missed pair
        assert most_calls > 2

    def test_deterministic_on_repeated_spectrum(self):
        # ARPACK restarts from a random vector when its Krylov space closes
        # early (ten 12-cycles at dim 5, seed 1); that vector must come from
        # the seed, not from the fresh entropy eigsh draws without an rng
        cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
        g = disjoint_union(*[cycle] * 10)
        for seed in (0, 1, 2):
            a = laplacian_eigenmaps(g, 5, seed=seed)
            for _ in range(3):
                assert np.array_equal(a, laplacian_eigenmaps(g, 5, seed=seed))

    def test_missed_pair_swapped_in(self, karate, monkeypatch):
        # a block solve that returns eigenpairs 2..dim+1 instead of 1..dim,
        # as when Lanczos misses a copy: the probe must swap the top one in
        import corestab.embed as em
        real = em.eigsh

        def missing_top(op, k, **kwargs):
            if k == 1:
                return real(op, k=1, **kwargs)
            vals, vecs = real(op, k=k + 1, **kwargs)
            return vals[:-1], vecs[:, :-1]  # ascending: drop the largest

        want_emb, want_vals = dense_eigenmaps_oracle(karate, 4)
        monkeypatch.setattr(em, "eigsh", missing_top)
        emb = laplacian_eigenmaps(karate, 4, seed=1)
        vals = rayleigh_eigenvalues(karate, emb)
        assert np.abs(vals - want_vals).max() <= 1e-10
        assert np.abs(emb - want_emb).max() <= 1e-8

    def test_zero_mode_in_basis_rejected(self, karate, monkeypatch):
        # an exact eigenpair, but the zero mode the solve must leave out
        import corestab.embed as em
        real = em.eigsh
        wdeg = karate.weighted_degrees
        zero_mode = np.sqrt(wdeg / wdeg.sum())

        def leaky(op, k, **kwargs):
            vals, vecs = real(op, k=k, **kwargs)
            if k > 1:
                vals[0], vecs[:, 0] = 1.0, zero_mode
            return vals, vecs

        monkeypatch.setattr(em, "eigsh", leaky)
        with pytest.raises(EigensolverError, match="inaccurate") as info:
            laplacian_eigenmaps(karate, 4, seed=1)
        residual, ortho = [float(x) for x in re.findall(
            r"= ([0-9.e+-]+)", str(info.value))]
        assert residual <= 1e-6 and ortho == pytest.approx(1.0)

    def test_wrong_components_rejected(self, karate, monkeypatch):
        # zero modes of made-up components are not eigenvectors of N
        import corestab.embed as em
        monkeypatch.setattr(em, "connected_components", lambda *a, **k: (
            2, (np.arange(karate.n) >= 17).astype(np.int32)))
        with pytest.raises(EigensolverError, match="one ~0 eigenvalue"):
            laplacian_eigenmaps(karate, 4)

    @pytest.mark.parametrize("error", ["no_convergence", "no_shifts"])
    def test_arpack_failure_raises(self, karate, monkeypatch, error):
        import corestab.embed as em
        sizes = []

        def failing(op, k, **kwargs):
            sizes.append(k)
            if error == "no_shifts":
                raise ArpackError(3)
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((op.shape[0], 0)))

        monkeypatch.setattr(em, "eigsh", failing)
        with pytest.raises(EigensolverError, match="Lanczos failed"):
            laplacian_eigenmaps(karate, 4)
        assert sizes == [4]  # no probe after a failed block solve

    def test_many_components_solved_sparse(self, monkeypatch):
        # one zero mode per component is shifted away before the solve, so
        # hundreds of components cost no extra pairs and never go dense
        import corestab.embed as em
        monkeypatch.setattr(em, "eigh", None)
        rng = np.random.default_rng(21)
        giant = random_er(rng, 300, 0.03)
        assert component_count(giant) == 1
        path = Graph(3, [(0, 1), (1, 2)])
        star = Graph(5, [(0, i) for i in range(1, 5)])
        g = disjoint_union(giant, *[path] * 120, *[complete_graph(3)] * 80,
                           *[star] * 60, *[Graph(2, [(0, 1)])] * 40)
        assert component_count(g) == 301
        want_emb, want_vals = dense_eigenmaps_oracle(g, 16)
        for dim in (1, 8, 16):
            emb = laplacian_eigenmaps(g, dim, seed=2)
            vals = rayleigh_eigenvalues(g, emb)
            assert np.abs(vals - want_vals[:dim]).max() <= 1e-10, dim
            assert np.abs(emb - want_emb[:, :dim]).max() <= 1e-8, dim

    def test_dense_fallback_matches_oracle(self):
        # dim + components >= n - 1 is too many eigenpairs for Lanczos;
        # random weights keep every eigenvalue simple
        rng = np.random.default_rng(12)
        g = random_er(rng, 12, 0.5)
        g = Graph(g.n, g.edges, rng.exponential(size=g.m))
        assert component_count(g) == 1
        for dim in (g.n - 2, g.n - 1):
            emb = laplacian_eigenmaps(g, dim)
            vals = rayleigh_eigenvalues(g, emb)
            want_emb, want_vals = dense_eigenmaps_oracle(g, dim)
            assert np.abs(vals - want_vals).max() <= 1e-10
            assert np.abs(emb - want_emb).max() <= 1e-8

    @pytest.mark.parametrize("part", ["residual", "ortho"])
    def test_inaccurate_lanczos_basis_rejected(self, karate, monkeypatch,
                                               part):
        import corestab.embed as em
        laplacian_eigenmaps(karate, 4, seed=1)  # the real basis passes
        monkeypatch.setattr(em, "eigsh", perturbed_solver(em.eigsh, part))
        assert_inaccurate(lambda: laplacian_eigenmaps(karate, 4, seed=1),
                          part)

    @pytest.mark.parametrize("part", ["residual", "ortho"])
    def test_inaccurate_dense_fallback_basis_rejected(self, karate,
                                                      monkeypatch, part):
        import corestab.embed as em
        monkeypatch.setattr(em, "eigsh", None)  # the fallback must not need it
        laplacian_eigenmaps(karate, 32)  # the real basis passes
        monkeypatch.setattr(em, "eigh", perturbed_solver(em.eigh, part))
        assert_inaccurate(lambda: laplacian_eigenmaps(karate, 32), part)


class TestNetworkxSpectrum:
    """Eigenvalues against the symmetric normalized Laplacian of networkx,
    I - D^-1/2 A D^-1/2, which has the spectrum of D^-1 (D - A)."""

    @pytest.mark.parametrize("case", ["karate", "disconnected"])
    def test_eigenvalues_match_networkx(self, karate, case):
        nx = pytest.importorskip("networkx")
        g = karate if case == "karate" else Graph(
            12, [[0, 1], [1, 2], [0, 2], [2, 3], [4, 5], [5, 6], [6, 7],
                 [7, 4], [4, 6], [8, 9], [9, 10], [10, 11], [8, 10]])
        dim = 5
        comps = component_count(g)
        assert comps == (1 if case == "karate" else 3)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges.tolist())
        want = np.linalg.eigvalsh(nx.normalized_laplacian_matrix(G).toarray())
        vals = rayleigh_eigenvalues(g, laplacian_eigenmaps(g, dim))
        assert np.abs(want[:comps]).max() <= 1e-10
        assert np.abs(vals - want[comps:comps + dim]).max() <= 1e-10


def perturbed_solver(real, part):
    """Wrap an eigensolver so its basis fails one arm of the accuracy check:
    "ortho" scales the columns (still eigenvectors, no longer normalized),
    "residual" adds noise to them."""

    def solve(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        if part == "ortho":
            return vals, vecs * 1.001
        noise = np.random.default_rng(0).standard_normal(vecs.shape)
        return vals, vecs + 1e-4 * noise

    return solve


def assert_inaccurate(call, part):
    with pytest.raises(EigensolverError, match="inaccurate") as info:
        call()
    residual, ortho = [float(x) for x in re.findall(
        r"= ([0-9.e+-]+)", str(info.value))]
    if part == "ortho":
        assert residual <= 1e-6 < ortho
    else:
        assert residual > 1e-6


def disjoint_union(*graphs):
    offsets = np.cumsum([0] + [g.n for g in graphs])
    return Graph(offsets[-1], np.concatenate(
        [g.edges + off for g, off in zip(graphs, offsets)]))


def two_cliques_bridged(size=5):
    edges = []
    for base in (0, size):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                edges.append((i, j))
    edges.append((0, size))
    return Graph(2 * size, edges)


class TestLine1:
    def test_single_edge_attracts(self):
        g = Graph(2, [[0, 1]])
        emb = line1_embed(g, EmbedSpec("line1", 2, batches=3000), seed=0)
        assert sigmoid_proximity(emb[0], emb[1]) >= 0.9

    def test_deterministic(self, karate):
        spec = EmbedSpec("line1", 4, batches=10)
        a = line1_embed(karate, spec, seed=9)
        b = line1_embed(karate, spec, seed=9)
        assert np.array_equal(a, b)

    def test_zero_edge_graph_rejected(self):
        with pytest.raises(ValueError):
            line1_embed(Graph(3, []), EmbedSpec("line1", 2))

    def test_clique_structure_found(self):
        g = two_cliques_bridged()
        intra_means, inter_means = [], []
        for seed in range(10):
            emb = line1_embed(g, EmbedSpec("line1", 2, batches=150), seed=seed)
            intra, inter = [], []
            for i in range(10):
                for j in range(i + 1, 10):
                    p = sigmoid_proximity(emb[i], emb[j])
                    same = (i < 5) == (j < 5)
                    (intra if same else inter).append(p)
            intra_means.append(np.mean(intra))
            inter_means.append(np.mean(inter))
        assert np.mean(intra_means) > np.mean(inter_means)

    def test_isolated_node_keeps_init(self):
        g = Graph(3, [[0, 1]])
        spec = EmbedSpec("line1", 2, batches=20)
        emb = line1_embed(g, spec, seed=4)
        rng = np.random.default_rng(4)
        init = (rng.random((3, 2)) - 0.5) / 2
        assert np.array_equal(emb[2], init[2])


class TestLineGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            b = int(rng.integers(1, 5))
            u_i = rng.normal(size=d)
            u_j = rng.normal(size=d)
            negs = rng.normal(size=(b, d))

            def loss(ui=None, uj=None, ns=None):
                ui = u_i if ui is None else ui
                uj = u_j if uj is None else uj
                ns = negs if ns is None else ns
                val = -np.log(expit(ui @ uj))
                for k in range(b):
                    val -= np.log(expit(-ui @ ns[k]))
                return val

            g_i, g_j, g_n = line_gradients(u_i, u_j, negs)
            fd_i = central_difference(lambda x: loss(ui=x), u_i)
            fd_j = central_difference(lambda x: loss(uj=x), u_j)
            assert np.allclose(g_i, fd_i, rtol=1e-4, atol=1e-7)
            assert np.allclose(g_j, fd_j, rtol=1e-4, atol=1e-7)
            for k in range(b):
                def loss_nk(x, k=k):
                    ns = negs.copy()
                    ns[k] = x
                    return loss(ns=ns)
                fd_nk = central_difference(loss_nk, negs[k])
                assert np.allclose(g_n[k], fd_nk, rtol=1e-4, atol=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            line_gradients(np.zeros(2), np.zeros(3), np.zeros((1, 2)))


class TestScatterAdd:
    """``apply_coefficients``, the one path by which every SGD step writes."""

    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_repeated_rows_match_add_at(self, shape):
        rng = np.random.default_rng(8)
        # 3 000 columns of 3 entries each onto 4 of 7 rows: ~2 250 hits per row
        cols, per_col = 3000, 3
        rows = rng.integers(0, 4, size=cols * per_col).astype(np.int32)
        data = rng.normal(size=cols * per_col)
        indptr = np.arange(0, cols * per_col + 1, per_col, dtype=np.int32)
        g = rng.normal(size=(cols,) + shape)
        base = rng.normal(size=(7,) + shape)
        emb = base.copy()
        apply_coefficients(emb, data, rows, indptr, g)
        upd = (data.reshape((-1,) + (1,) * len(shape))
               * g[np.repeat(np.arange(cols), per_col)])
        assert np.allclose(emb, base + add_at_oracle(7, rows, upd),
                           rtol=0, atol=1e-12)
        assert np.array_equal(emb[4:], base[4:])

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_single_row(self, shape):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(1,) + shape)
        emb = np.zeros((2,) + shape)
        apply_coefficients(emb, np.array([-0.25]), np.array([1], np.int32),
                           np.array([0, 1], np.int32), g)
        assert np.array_equal(emb, add_at_oracle(2, [1], -0.25 * g))

    def test_workspace_pointers_are_prefixes(self):
        # the pointers of a c-item step are the prefix of the run's array;
        # the spectral step's depend on c and are written by each step
        ws = _SGDWorkspace(3, 4)
        emb = np.zeros((5, 4))
        for c in (1, 17, _CHUNK):
            pairs = np.zeros((c, 2), dtype=np.intp)
            _le_step(emb, emb.copy(), pairs, np.ones(c), 0.1, 1.0, 1.0, ws)
            for ptr, counts in ((ws.line_ptr, [4, 1, 1, 1, 1] * c),
                                (ws.pair_ptr, [1, 1] * c),
                                (ws.le_ptr, [2, 2] * c + [1, 1] * c)):
                want = np.cumsum([0] + counts)
                assert np.array_equal(ptr[:len(want)], want)
        assert ws.line_ptr.dtype == ws.le_ptr.dtype == ws.rows.dtype == np.int32

    @staticmethod
    def valid_args():
        # two columns of one entry each onto a 4 x 3 embedding
        return (np.zeros((4, 3)), np.array([1.0, 2.0]),
                np.array([0, 3], np.int32), np.array([0, 1, 2], np.int32),
                np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [
        {0: np.zeros((4, 3), order="F")}, {0: np.zeros((4, 6))[:, ::2]},
        {0: np.zeros((4, 3), np.float32)}, {4: np.ones((4, 3))[::2]},
        {2: np.array([0, 3], np.int64)}, {3: np.array([0, 1, 2], np.int64)},
        {3: np.array([0, 1], np.int32)}, {3: np.array([1, 1, 2], np.int32)},
        {1: np.array([1.0])}, {4: np.ones((2, 2))},
        {2: np.array([0, 4], np.int32)}, {2: np.array([-1, 3], np.int32)},
        {3: np.array([0, 2, 1], np.int32)}],
        ids=["fortran", "sliced", "float32", "sliced_gathered", "int64_rows",
             "int64_indptr", "short_indptr", "offset_indptr", "short_data",
             "width", "row_past_end", "negative_row", "falling_indptr"])
    def test_rejects_what_it_cannot_write_in_place(self, bad):
        # Fortran-ordered, sliced and float32 embeddings, a sliced gathered
        # block, int64 indices, a short, offset or falling indptr, short
        # data, a width mismatch and rows outside the embedding: each
        # raises, and the embedding is left untouched
        args = list(self.valid_args())
        for i, a in bad.items():
            args[i] = a
        before = args[0].copy()
        with pytest.raises(ValueError):
            apply_coefficients(*args)
        assert np.array_equal(args[0], before)

    def test_valid_args_apply(self):
        emb, data, rows, indptr, g = self.valid_args()
        apply_coefficients(emb, data, rows, indptr, g)
        assert np.array_equal(emb, [[1] * 3, [0] * 3, [0] * 3, [2] * 3])

    def test_compiled_kernels_match_public_products(self):
        # the kernels are scipy internals; a scipy that moves or changes
        # them fails here by name rather than corrupting embeddings
        from scipy.sparse._sparsetools import csc_matvecs, csr_matvec
        rng = np.random.default_rng(14)
        m = sp.random(6, 5, density=0.5, format="csc", random_state=rng)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(6, 3))
        want = y + m @ x
        csc_matvecs(6, 5, 3, m.indptr, m.indices, m.data, x.ravel(),
                    y.reshape(-1))
        assert np.allclose(y, want, rtol=0, atol=1e-14)
        r = m.tocsr()
        v, out = rng.normal(size=5), np.zeros(6)
        csr_matvec(6, 5, r.indptr, r.indices, r.data, v, out)
        assert np.array_equal(out, r @ v)


class TestLineStep:
    def test_matches_sequential_add_at_step(self):
        rng = np.random.default_rng(10)
        n, dim, b, neg = 12, 4, 500, 5
        emb = rng.normal(size=(n, dim))
        src = rng.integers(0, n, size=b)
        ctx = (src + rng.integers(1, n, size=b)) % n
        negs = rng.integers(0, n, size=(b, neg))
        lr = 0.05
        # reference: the gradients on the pre-step rows, applied by add.at
        mask = (negs != src[:, None]) & (negs != ctx[:, None])
        u_i, u_j, u_n = emb[src], emb[ctx], emb[negs]
        s = line_positive_coefficient(u_i, u_j)[:, None]
        s_neg = line_negative_coefficient(u_i, u_n, mask)
        want = emb.copy()
        np.add.at(want, src, -lr * (s * u_j + (s_neg[..., None] * u_n).sum(1)))
        np.add.at(want, ctx, -lr * s * u_i)
        np.add.at(want, negs.reshape(-1),
                  -lr * (s_neg[..., None] * u_i[:, None]).reshape(-1, dim))
        _line_step(emb, src, ctx, negs, lr, _SGDWorkspace(neg, dim))
        assert np.allclose(emb, want, rtol=0, atol=1e-12)

    @staticmethod
    def draws(rng, n, b, neg):
        return (rng.integers(0, n, size=b), rng.integers(0, n, size=b),
                rng.integers(0, n, size=(b, neg)))

    # (n, dim, edges, negatives): a full chunk, line1_embed's final partial
    # chunk, stable's 1-edge real subset, one negative, three rows hit
    # thousands of times each
    @pytest.mark.parametrize("n,dim,b,neg", [
        (1000, 10, _CHUNK, 5), (1000, 10, 1234, 5), (50, 7, 1, 5),
        (300, 4, _CHUNK, 1), (3, 5, _CHUNK, 5)])
    def test_bit_identical_to_allocating_oracle(self, n, dim, b, neg):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(n, dim))
        want = emb.copy()
        src, ctx, negs = self.draws(rng, n, b, neg)
        _line_step(emb, src, ctx, negs, 0.05, _SGDWorkspace(neg, dim))
        line_step_oracle(want, src, ctx, negs, 0.05)
        assert np.array_equal(emb, want)

    def test_workspace_reused_across_chunk_sizes(self):
        rng = np.random.default_rng(12)
        n, dim, neg = 200, 6, 3
        emb = rng.normal(size=(n, dim))
        want = emb.copy()
        ws = _SGDWorkspace(neg, dim)
        for b in (_CHUNK, 1, 1234, 17, _CHUNK):
            src, ctx, negs = self.draws(rng, n, b, neg)
            _line_step(emb, src, ctx, negs, 0.01 * b / _CHUNK, ws)
            line_step_oracle(want, src, ctx, negs, 0.01 * b / _CHUNK)
            assert np.array_equal(emb, want)

    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_warm_step_allocates_under_128_kib(self, n):
        import tracemalloc
        rng = np.random.default_rng(13)
        dim, neg = 10, 5
        emb = rng.normal(size=(n, dim)) * 0.01
        src, ctx, negs = self.draws(rng, n, _CHUNK, neg)
        ws = _SGDWorkspace(neg, dim)
        _line_step(emb, src, ctx, negs, 0.05, ws)
        tracemalloc.start()
        try:
            _line_step(emb, src, ctx, negs, 0.05, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the step writes in place, so n does not enter: a sparse product's
        # n x dim result took about 80 KiB at n = 1 000 and 80 MB at 10**6,
        # the one-hot scatter of the gradient rows about 130 KiB at 1 000
        assert peak < 128 * 1024


class TestAliasTable:
    def test_frequencies_match(self):
        rng = np.random.default_rng(0)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable(w)
        draws = table.draw(rng, 200_000)
        freq = np.bincount(draws, minlength=4) / len(draws)
        assert np.allclose(freq, w / w.sum(), atol=5e-3)

    def test_deterministic(self):
        table = AliasTable([0.3, 0.7])
        a = table.draw(np.random.default_rng(1), 100)
        b = table.draw(np.random.default_rng(1), 100)
        assert np.array_equal(a, b)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasTable([])
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])


class TestEmbedSpecDict:
    def test_roundtrip_and_keys(self):
        spec = EmbedSpec("line1", 7, batches=9, negatives=2, lr=0.5)
        assert spec.to_dict() == {"algorithm": "line1", "dim": 7,
                                  "batches": 9, "negatives": 2, "lr": 0.5}
        assert EmbedSpec.from_dict(spec.to_dict()) == spec
        assert EmbedSpec.from_dict({"algorithm": "line1", "dim": 2}) == \
            EmbedSpec("line1", 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError,
                           match=r"unknown keys: \['zz'\]"):
            EmbedSpec.from_dict({"algorithm": "line1", "dim": 2, "zz": 1})
        # the seed is an argument of the engine call, not a spec field
        with pytest.raises(ValueError,
                           match=r"unknown keys: \['seed'\]"):
            EmbedSpec.from_dict({"algorithm": "line1", "dim": 2, "seed": 1})


class TestEmbeddingIO:
    def test_csv_roundtrip(self, tmp_path):
        emb = np.random.default_rng(3).normal(size=(5, 3))
        ids = np.array([7, 3, 11, 0, 2])
        path = tmp_path / "emb.csv"
        save_embedding_csv(path, emb, ids)
        got_ids, got = load_embedding_csv(path)
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got, emb)  # repr round-trips floats exactly

    def test_binary_roundtrip(self, tmp_path):
        emb = np.random.default_rng(4).normal(size=(6, 2))
        path = tmp_path / "emb.bin"
        save_embedding_binary(path, emb)
        blob = path.read_bytes()
        assert blob[:8] == b"CRSTEMB1"
        assert struct.unpack("<QQ", blob[8:24]) == (6, 2)
        got = np.frombuffer(blob[24:], dtype="<f8").reshape(6, 2)
        assert np.array_equal(got, emb)
