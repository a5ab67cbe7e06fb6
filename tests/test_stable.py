import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import expit

import corestab.stable as stable_mod
from corestab.embed import _CHUNK, EmbedSpec, _SGDWorkspace, embed_graph
from corestab.graph import Graph, core_decomposition
from corestab.evaluation import stability_error_distribution
from corestab.stable import (StableConfig, TrainingDivergence, _gap_blocks,
                             _le_step, _penalty_step, instability_penalty,
                             isolated_core_embedding, stability_coefficient,
                             stable_train)

from conftest import (ba_with_pendants, central_difference, complete_graph,
                      desk_graph, le_base_gradient, sigmoid_proximity,
                      spy_training_line_steps, stability_gradient)


def gap_rows(core_emb, core_ref):
    # every block's gaps, in upper-triangular row order
    return np.concatenate(list(_gap_blocks(core_emb, core_ref)))


def vec_for_sigma(p):
    # two 2-d vectors whose dot product gives sigma(dot) == p
    return np.array([np.log(p / (1 - p)), 0.0]), np.array([1.0, 0.0])


class TestInstabilityPenalty:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(6, 3))
        core = np.array([1, 3, 4])
        assert instability_penalty(emb, emb[core], core) == 0.0

    def test_single_pair_quarter(self):
        u_i, u_j = vec_for_sigma(0.9)
        h_i, h_j = vec_for_sigma(0.4)
        emb = np.vstack([u_i, u_j])
        ref = np.vstack([h_i, h_j])
        assert instability_penalty(emb, ref, [0, 1]) == pytest.approx(0.25)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(9, 4))
        ref = rng.normal(size=(5, 4))
        core = np.array([0, 2, 4, 6, 8])
        expected = 0.0
        for a in range(5):
            for b in range(a + 1, 5):
                p = sigmoid_proximity(emb[core[a]], emb[core[b]])
                q = sigmoid_proximity(ref[a], ref[b])
                expected += (p - q) ** 2
        assert instability_penalty(emb, ref, core) == pytest.approx(expected)

    def test_mapping_mismatch(self):
        with pytest.raises(ValueError):
            instability_penalty(np.zeros((4, 2)), np.zeros((3, 2)), [0, 1])

    def test_gaps_sum_to_penalty(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(7, 3))
        ref = rng.normal(size=(4, 3))
        core = np.array([0, 1, 5, 6])
        gaps = stability_error_distribution(emb, ref, core)
        assert gaps.size == 6
        assert gaps.sum() == pytest.approx(
            instability_penalty(emb, ref, core))

    def test_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(9, 3))
        ref = rng.normal(size=(7, 3))
        core = np.array([0, 1, 2, 4, 5, 7, 8])
        gaps = gap_rows(emb[core], ref)
        penalty = instability_penalty(emb, ref, core)
        monkeypatch.setattr(stable_mod, "_GAP_BLOCK", 3)
        assert np.array_equal(gap_rows(emb[core], ref), gaps)
        assert instability_penalty(emb, ref, core) == pytest.approx(penalty)

    @pytest.mark.parametrize("dim", [3, 10])
    def test_triangle_blocks_equal_full_square(self, dim):
        # 1 100 core rows: two full 512-row blocks and a partial one, each
        # block's full k-wide square masked to its pairs (r, c), c > r
        rng = np.random.default_rng(4)
        k = 1100
        emb, ref = rng.normal(size=(2, k, dim))
        want = []
        for lo in range(0, k, 512):
            hi = min(k, lo + 512)
            p, q = (1.0 / (1.0 + np.exp(-(x[lo:hi] @ x.T)))
                    for x in (emb, ref))
            want.append(((p - q) ** 2)[np.arange(lo, hi)[:, None]
                                       < np.arange(k)])
        assert np.array_equal(gap_rows(emb, ref), np.concatenate(want))


class TestStabilityGradient:
    def test_zero_when_proximities_match(self):
        u_i, u_j = vec_for_sigma(0.7)
        assert np.allclose(stability_gradient(u_i, u_j, u_i, u_j), 0.0)

    def test_zero_when_uj_zero(self):
        rng = np.random.default_rng(3)
        u_i = rng.normal(size=4)
        got = stability_gradient(u_i, np.zeros(4), rng.normal(size=4),
                                 rng.normal(size=4))
        assert np.allclose(got, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            u_i, u_j = rng.normal(size=d), rng.normal(size=d)
            h_i, h_j = rng.normal(size=d), rng.normal(size=d)
            target = expit(h_i @ h_j)

            def loss(x):
                return (expit(x @ u_j) - target) ** 2

            fd = central_difference(loss, u_i)
            # analytic expression omits the constant factor 2
            analytic = 2.0 * stability_gradient(u_i, u_j, h_i, h_j)
            assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-8)

    def test_trainer_uses_the_same_coefficient(self, monkeypatch):
        # the finite-difference-checked gradient is built on
        # stability_coefficient; the training loop must reach the penalty
        # through it too
        calls = []
        real = stable_mod.stability_coefficient

        def spy(u_i, u_j, s_hat):
            calls.append(len(np.atleast_1d(s_hat)))
            return real(u_i, u_j, s_hat)

        monkeypatch.setattr(stable_mod, "stability_coefficient", spy)
        stable_train(desk_graph(), StableConfig("line1", dim=3, batches=2),
                     seed=0)
        assert len(calls) > 1


class TestLeBaseGradient:
    def test_zero_at_rest(self):
        u = np.ones(3)
        assert np.allclose(le_base_gradient(u, u, u, 1.0, 0.5, 0.5), 0.0)

    def test_beta_zero(self):
        rng = np.random.default_rng(5)
        u_i, u_j, u_0 = rng.normal(size=(3, 4))
        got = le_base_gradient(u_i, u_j, u_0, 2.0, 0.3, 0.0)
        assert np.allclose(got, 0.3 * 2.0 * (u_i - u_j))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            u_i, u_j, u_0 = rng.normal(size=(3, d))
            w, gamma, beta = rng.uniform(0.1, 3.0, size=3)

            def loss(x):
                return (gamma * w * ((x - u_j) ** 2).sum()
                        + beta * ((x - u_0) ** 2).sum())

            fd = central_difference(loss, u_i)
            analytic = 2.0 * le_base_gradient(u_i, u_j, u_0, w, gamma, beta)
            assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-8)


class TestSteps:
    """The penalty and spectral-base steps against gradients applied by
    ``np.add.at``, all read from the rows before the step; the tolerance is
    relative to the largest row entry, which thousands of hits make large."""

    @staticmethod
    def assert_close(got, want):
        scale = max(1.0, np.abs(want).max())
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("n,k,c", [(9, 5, 400), (30, 30, 1),
                                       (8, 4, _CHUNK)])
    def test_penalty_step_matches_add_at(self, n, k, c):
        rng = np.random.default_rng(20)
        emb = rng.normal(size=(n, 3))
        core = np.sort(rng.choice(n, size=k, replace=False))
        ref = rng.normal(size=(k, 3))
        pos_i = rng.integers(0, k, size=c)
        pos_j = (pos_i + rng.integers(1, k, size=c)) % k
        c_i, c_j = core[pos_i], core[pos_j]
        s_hat = expit(np.einsum("cd,cd->c", ref[pos_i], ref[pos_j]))
        coef = -0.3 * stability_coefficient(emb[c_i], emb[c_j], s_hat)
        want = emb.copy()
        np.add.at(want, c_i, coef[:, None] * emb[c_j])
        np.add.at(want, c_j, coef[:, None] * emb[c_i])
        _penalty_step(emb, ref, core, pos_i, pos_j, 0.3, _SGDWorkspace(2, 3))
        self.assert_close(emb, want)

    @pytest.mark.parametrize("n,c", [(6, 500), (40, 1), (5, _CHUNK)])
    def test_le_step_matches_add_at(self, n, c):
        rng = np.random.default_rng(21)
        emb, init = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
        i = rng.integers(0, n, size=c)
        pairs = np.column_stack([i, (i + rng.integers(1, n, size=c)) % n])
        w = rng.uniform(0.1, 2.0, size=c)
        u_i, u_j = emb[pairs[:, 0]], emb[pairs[:, 1]]
        g_i = le_base_gradient(u_i, u_j, init[pairs[:, 0]], w, 0.3, 0.2)
        g_j = le_base_gradient(u_j, u_i, init[pairs[:, 1]], w, 0.3, 0.2)
        want = emb.copy()
        np.add.at(want, pairs[:, 0], -0.05 * g_i)
        np.add.at(want, pairs[:, 1], -0.05 * g_j)
        _le_step(emb, init, pairs, w, 0.05, 0.3, 0.2, _SGDWorkspace(1, 4))
        self.assert_close(emb, want)


class TestIsolatedCoreEmbedding:
    def test_single_edge_core(self):
        g = Graph(2, [[0, 1]])
        cm = core_decomposition(g)
        emb = isolated_core_embedding(
            g, cm, EmbedSpec("line1", 2, batches=3000), seed=0)
        assert sigmoid_proximity(emb[0], emb[1]) >= 0.9

    def test_core_equals_whole_graph(self):
        g = complete_graph(6)
        cm = core_decomposition(g)
        spec = EmbedSpec("line1", 3, batches=20)
        assert np.array_equal(isolated_core_embedding(g, cm, spec, seed=8),
                              embed_graph(g, spec, seed=8))

    def test_small_core_rejected(self):
        g = Graph(1, [])
        with pytest.raises(ValueError):
            isolated_core_embedding(g, core_decomposition(g),
                                    EmbedSpec("line1", 2))


class TestStableConfig:
    def test_base_specific_alpha_defaults(self):
        # one default whichever way the config is built
        for base, alpha in (("line1", 10.0), ("laplacian_eigenmaps", 1e5)):
            assert StableConfig(base).alpha == alpha
            assert StableConfig.from_dict({"base": base}).alpha == alpha
        assert StableConfig("line1", alpha=0.5).alpha == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            StableConfig(base="nope")
        with pytest.raises(ValueError):
            StableConfig(base="line1", alpha=-1)
        with pytest.raises(ValueError):
            StableConfig(base="laplacian_eigenmaps", gamma=0.0)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            StableConfig(base="laplacian_eigenmaps", beta=-0.1)
        # the SGD fields are checked by the EmbedSpec the config trains with
        for bad in ({"negatives": 0}, {"dim": 0}, {"lr": 0.0},
                    {"batches": 0}):
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must"):
                StableConfig("line1", **bad)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError,
                           match=r"unknown keys: \['bogus', 'zz'\]"):
            StableConfig.from_dict({"base": "line1", "zz": 0, "bogus": 1})
        with pytest.raises(ValueError, match="missing key 'base'"):
            StableConfig.from_dict({"dim": 3})

    def test_dict_roundtrip_keeps_fields_and_alpha_default(self):
        cfg = StableConfig.from_dict({"base": "laplacian_eigenmaps", "dim": 3})
        assert cfg.to_dict() == {
            "base": "laplacian_eigenmaps", "dim": 3, "alpha": 1e5,
            "gamma": 0.1, "beta": 0.1, "lr": 0.025, "batches": 200,
            "negatives": 5}
        assert StableConfig.from_dict(cfg.to_dict()) == cfg


class TestStableTrain:
    def test_loss_trace_shape_and_determinism(self):
        g = desk_graph()
        cfg = StableConfig("line1", dim=3, batches=25)
        a = stable_train(g, cfg, seed=2)
        b = stable_train(g, cfg, seed=2)
        assert a.base_loss.shape == (25,) and a.stability_loss.shape == (25,)
        assert np.isfinite(a.base_loss).all()
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_alpha_zero_warns_and_trains(self, caplog):
        g = desk_graph()
        cfg = StableConfig("line1", dim=3, batches=10, alpha=0.0)
        with caplog.at_level("WARNING"):
            result = stable_train(g, cfg, seed=1)
        assert any("alpha=0" in r.message for r in caplog.records)
        assert np.isfinite(result.embeddings).all()

    def test_zero_weight_edges_never_touch_base_updates(self, monkeypatch):
        g0 = desk_graph()
        weights = g0.weights.copy()
        core = set(core_decomposition(g0).degenerate_core.tolist())
        in_core = [i for i, (a, b) in enumerate(g0.edges.tolist())
                   if a in core and b in core]
        weights[in_core[0]] = 0.0
        g = Graph(g0.n, g0.edges, weights)
        positive = {tuple(e) for e, w in zip(g.edges.tolist(), g.weights)
                    if w > 0}
        pairs = []
        spy_training_line_steps(monkeypatch, lambda src, ctx: pairs.extend(
            zip(src.tolist(), ctx.tolist())))
        stable_train(g, StableConfig("line1", dim=3, batches=12), seed=7)
        assert pairs
        assert all((min(p), max(p)) in positive for p in pairs)

    def test_line_base_draws_edges_in_proportion_to_weight(self,
                                                          monkeypatch):
        # the line1 objective is -sum w log sigma(u_i . u_j): its base draws
        # must pick the weight-9 edges 9 times as often as the weight-1 ones
        g0 = desk_graph()
        weights = np.where(np.arange(g0.m) % 2 == 0, 9.0, 1.0)
        g = Graph(g0.n, g0.edges, weights)
        heavy = {tuple(e) for e, w in zip(g.edges.tolist(), weights)
                 if w == 9.0}
        pairs = []
        spy_training_line_steps(monkeypatch, lambda src, ctx: pairs.extend(
            zip(src.tolist(), ctx.tolist())))
        stable_train(g, StableConfig("line1", dim=3, batches=200), seed=1)
        share = np.mean([(min(p), max(p)) in heavy for p in pairs])
        want = weights[::2].sum() / weights.sum()
        assert len(pairs) >= 100 * g.m
        assert abs(share - want) <= 0.02, (share, want)

    def test_pair_draws_cover_core_pairs_uniformly(self, monkeypatch):
        # K10 with ten pendants: the core is the clique, k = 10, 45 pairs
        k, batches = 10, 500
        clique = complete_graph(k)
        leaves = np.column_stack([np.arange(k), np.arange(k, 2 * k)])
        g = Graph(2 * k, np.vstack([clique.edges, leaves]))
        n_pairs = k * (k - 1) // 2
        pairs, per_batch, draws = [], [], [0]
        real_apply = stable_mod.apply_coefficients
        real_loss = stable_mod.line_base_loss

        def step_spy(src, ctx):
            draws[0] += len(src)

        def apply_spy(emb, data, rows, indptr, gathered):
            # with the line1 base only the penalty step applies from here;
            # its rows are [i block | j block]
            c = len(rows) // 2
            pairs.extend(zip(rows[:c].tolist(), rows[c:].tolist()))
            draws[0] += c
            return real_apply(emb, data, rows, indptr, gathered)

        def loss_spy(graph, emb):
            # called once at the end of each batch
            per_batch.append(draws[0])
            draws[0] = 0
            return real_loss(graph, emb)

        spy_training_line_steps(monkeypatch, step_spy)
        monkeypatch.setattr(stable_mod, "apply_coefficients", apply_spy)
        monkeypatch.setattr(stable_mod, "line_base_loss", loss_spy)
        stable_train(g, StableConfig("line1", dim=3, batches=batches),
                     seed=4)
        assert per_batch == [g.m + n_pairs] * batches
        assert len(pairs) >= 20_000
        assert all(i != j and i < k and j < k for i, j in pairs)
        counts = Counter((min(p), max(p)) for p in pairs)
        assert len(counts) == n_pairs
        mean = len(pairs) / n_pairs
        assert all(abs(c - mean) <= 0.25 * mean for c in counts.values())

    def test_memory_stays_below_the_pair_count(self):
        # a 2 000-node core has 1 999 000 pairs; holding them as zero-weight
        # edges and per-edge arrays peaks at about 235 MiB
        g = ba_with_pendants(2000, 3, 200, 3)
        cfg = StableConfig("line1", dim=4, batches=1)
        tracemalloc.start()
        try:
            stable_train(g, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_high_alpha_pins_clique_proximities(self):
        g = complete_graph(10)
        cfg = StableConfig("line1", dim=4, batches=500, alpha=100.0)
        result = stable_train(g, cfg, seed=3)
        assert result.stability_loss[-1] <= 1e-3 * 45

    @pytest.mark.parametrize("base,alpha", [("line1", 10.0),
                                            ("laplacian_eigenmaps", 100.0)])
    def test_desk_graph_penalty_improves(self, base, alpha):
        g = desk_graph()
        cfg = StableConfig(base, dim=4, batches=200, alpha=alpha)
        result = stable_train(g, cfg, seed=5)
        before = instability_penalty(result.initial, result.isolated_core,
                                     result.core_nodes)
        after = instability_penalty(result.embeddings, result.isolated_core,
                                    result.core_nodes)
        assert after < before

    def test_saturation_warns_once_and_convergence_stays_quiet(self,
                                                               caplog):
        g = desk_graph()
        # a penalty step scaled by lr * alpha = 25 000 pushes the core dot
        # products to where the sigmoid is flat: the gaps stay near 0.5
        saturating = StableConfig("laplacian_eigenmaps", dim=3, batches=2,
                                  alpha=1e6)
        with caplog.at_level("WARNING", logger="corestab.stable"):
            result = stable_train(g, saturating, seed=0)
        per_pair = result.stability_loss[-1] / 45  # 10 core nodes
        assert per_pair > 0.2
        warned = [r.getMessage() for r in caplog.records
                  if "saturated" in r.getMessage()]
        assert warned == [f"training saturated: the final penalty is "
                          f"{per_pair:.3g} per core pair (RMS proximity gap "
                          f"{np.sqrt(per_pair):.3g}, above 0.2)"]
        caplog.clear()
        converging = StableConfig("line1", dim=4, batches=50)
        with caplog.at_level("WARNING", logger="corestab.stable"):
            result = stable_train(g, converging, seed=0)
        assert result.stability_loss[-1] / 45 < 0.01
        assert not caplog.records

    def test_divergence_aborts_with_batch_index(self):
        g = desk_graph()
        cfg = StableConfig("laplacian_eigenmaps", dim=3, batches=50, lr=1e9,
                           alpha=1e9)
        with pytest.raises(TrainingDivergence) as info:
            stable_train(g, cfg, seed=1)
        assert 0 <= info.value.batch < 50

    def test_core_too_small(self):
        g = Graph(1, [])
        with pytest.raises(ValueError):
            stable_train(g, StableConfig("line1"))

    def test_linear_scaling_in_batches_times_edges(self):
        from corestab.synth import GenSpec, generate
        g = generate(GenSpec("er", 300, p=0.03), seed=5)

        # the sizes take turns, three rounds, best of 3 per size: a slow
        # phase of the host then slows every size, not one
        sizes = [40, 80, 160]
        times = [np.inf] * len(sizes)
        for _ in range(3):
            for i, batches in enumerate(sizes):
                cfg = StableConfig("line1", dim=8, batches=batches)
                t0 = time.process_time()
                stable_train(g, cfg, seed=0)
                times[i] = min(times[i], time.process_time() - t0)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert 0.8 <= slope <= 1.2
