import re

import numpy as np
import pytest
from scipy.special import expit

from corestab.embed import (AliasTable, EigensolverError, EmbedSpec,
                            _line_step, laplacian_eigenmaps, line1_embed,
                            line_negative_gradient, line_positive_gradient,
                            load_embedding_binary, load_embedding_csv,
                            save_embedding_binary, save_embedding_csv,
                            scatter_add)
from corestab.graph import Graph

from conftest import (add_at_oracle, central_difference, clique_rw_spectrum,
                      clique_spectrum_numeric, clique_spectrum_shift_oracle,
                      cluster_eigenvalues, complete_graph, line_gradients,
                      random_er, rw_normalized_laplacian, sigmoid_proximity)


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
        _, vals = laplacian_eigenmaps(cycle, 2, return_eigenvalues=True)
        assert np.allclose(vals, 1 - np.cos(2 * np.pi / 6), atol=1e-8)

    def test_clique_degenerate_eigenvalues(self):
        _, vals = laplacian_eigenmaps(complete_graph(10), 3,
                                      return_eigenvalues=True)
        assert np.allclose(vals, 10 / 9, atol=1e-8)

    def test_eigenpair_residuals(self, karate):
        emb, vals = laplacian_eigenmaps(karate, 4, return_eigenvalues=True)
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
        emb, vals = laplacian_eigenmaps(two, 2, return_eigenvalues=True)
        assert emb.shape == (4, 2)
        assert (vals > 1e-8).all()

    def test_isolated_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            laplacian_eigenmaps(Graph(3, [[0, 1]]), 1)

    def test_deterministic(self, karate):
        a = laplacian_eigenmaps(karate, 5, seed=3)
        b = laplacian_eigenmaps(karate, 5, seed=3)
        assert np.array_equal(a, b)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(11)
        g = random_er(rng, 80, 0.1)
        if (g.degrees == 0).any():
            g = random_er(rng, 80, 0.2)
        import corestab.embed as em
        emb_dense, vd = laplacian_eigenmaps(g, 4, return_eigenvalues=True)
        limit = em._DENSE_EIG_LIMIT
        em._DENSE_EIG_LIMIT = 10
        try:
            emb_sparse, vs = laplacian_eigenmaps(g, 4, seed=1,
                                                 return_eigenvalues=True)
        finally:
            em._DENSE_EIG_LIMIT = limit
        assert np.allclose(vd, vs, atol=1e-8)
        assert np.allclose(np.abs(emb_dense), np.abs(emb_sparse), atol=1e-5)

    @pytest.mark.parametrize("part", ["residual", "ortho"])
    def test_inaccurate_lanczos_basis_rejected(self, karate, monkeypatch,
                                               part):
        import corestab.embed as em
        real = em.eigsh

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            if part == "ortho":  # still eigenvectors, no longer D-normalized
                return vals, vecs * 1.001
            noise = np.random.default_rng(0).standard_normal(vecs.shape)
            return vals, vecs + 1e-4 * noise

        monkeypatch.setattr(em, "_DENSE_EIG_LIMIT", 10)
        laplacian_eigenmaps(karate, 4, seed=1)  # the real basis passes
        monkeypatch.setattr(em, "eigsh", perturbed)
        with pytest.raises(EigensolverError, match="inaccurate") as info:
            laplacian_eigenmaps(karate, 4, seed=1)
        residual, ortho = [float(x) for x in re.findall(
            r"= ([0-9.e+-]+)", str(info.value))]
        if part == "ortho":
            assert residual <= 1e-6 < ortho
        else:
            assert residual > 1e-6


def two_cliques_bridged():
    edges = []
    for base in (0, 5):
        for i in range(base, base + 5):
            for j in range(i + 1, base + 5):
                edges.append((i, j))
    edges.append((0, 5))
    return Graph(10, edges)


class TestLine1:
    def test_single_edge_attracts(self):
        g = Graph(2, [[0, 1]])
        emb = line1_embed(g, EmbedSpec("line1", 2, seed=0, batches=3000))
        assert sigmoid_proximity(emb[0], emb[1]) >= 0.9

    def test_deterministic(self, karate):
        spec = EmbedSpec("line1", 4, seed=9, batches=10)
        a = line1_embed(karate, spec)
        b = line1_embed(karate, spec)
        assert np.array_equal(a, b)

    def test_zero_edge_graph_rejected(self):
        with pytest.raises(ValueError):
            line1_embed(Graph(3, []), EmbedSpec("line1", 2))

    def test_clique_structure_found(self):
        g = two_cliques_bridged()
        intra_means, inter_means = [], []
        for seed in range(10):
            emb = line1_embed(g, EmbedSpec("line1", 2, seed=seed, batches=150))
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
        spec = EmbedSpec("line1", 2, seed=4, batches=20)
        emb = line1_embed(g, spec)
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
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_repeated_rows_match_add_at(self, shape):
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 4, size=3000)  # ~750 hits per row
        upd = rng.normal(size=(3000,) + shape)
        base = rng.normal(size=(7,) + shape)
        emb = base.copy()
        scatter_add(emb, rows, upd)
        assert np.allclose(emb, base + add_at_oracle(7, rows, upd),
                           rtol=0, atol=1e-12)
        assert np.array_equal(emb[4:], base[4:])

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_single_row(self, shape):
        rng = np.random.default_rng(9)
        upd = rng.normal(size=(1,) + shape)
        emb = np.zeros((2,) + shape)
        scatter_add(emb, np.array([1]), upd)
        assert np.array_equal(emb, add_at_oracle(2, [1], upd))


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
        g_i_pos, g_j = line_positive_gradient(u_i, u_j)
        g_i_neg, g_negs = line_negative_gradient(u_i, u_n, mask)
        want = emb.copy()
        np.add.at(want, src, -lr * (g_i_pos + g_i_neg))
        np.add.at(want, ctx, -lr * g_j)
        np.add.at(want, negs.reshape(-1), -lr * g_negs.reshape(-1, dim))
        _line_step(emb, src, ctx, negs, lr)
        assert np.allclose(emb, want, rtol=0, atol=1e-12)


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
        spec = EmbedSpec("line1", 7, seed=3, batches=9, negatives=2, lr=0.5)
        assert spec.to_dict() == {"algorithm": "line1", "dim": 7, "seed": 3,
                                  "batches": 9, "negatives": 2, "lr": 0.5}
        assert EmbedSpec.from_dict(spec.to_dict()) == spec
        assert EmbedSpec.from_dict({"algorithm": "line1", "dim": 2}) == \
            EmbedSpec("line1", 2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError,
                           match=r"unknown embedder config keys: \['zz'\]"):
            EmbedSpec.from_dict({"algorithm": "line1", "dim": 2, "zz": 1})


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
        got = load_embedding_binary(path)
        assert np.array_equal(got, emb)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_embedding_binary(path)
