import numpy as np
import pytest

from corestab.evaluation import (evaluate, make_split, rank_auc,
                                 score_pairs, stability_error_distribution)
from corestab.graph import Graph
from corestab.stable import instability_penalty

from conftest import random_er


class TestMakeSplit:
    def test_quarter_of_paw_graph(self):
        # triangle plus one pendant: 4 edges, and real non-edges exist for
        # negative sampling (a bare triangle has none)
        g = Graph(4, [[0, 1], [1, 2], [0, 2], [0, 3]])
        split = make_split(g, 1 / 4, seed=0)
        assert len(split.positives) == 1
        assert len(split.negatives) == 1
        assert split.train.m == 3

    def test_deterministic(self, karate):
        a = make_split(karate, 0.1, seed=5)
        b = make_split(karate, 0.1, seed=5)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)

    def test_positives_disjoint_from_train(self, karate):
        split = make_split(karate, 0.1, seed=1)
        train_keys = split.train.edge_key_set()
        for i, j in split.positives:
            assert (int(i), int(j)) not in train_keys

    def test_negatives_are_nonedges(self, karate):
        split = make_split(karate, 0.1, seed=1)
        keys = karate.edge_key_set()
        for i, j in split.negatives:
            assert (int(i), int(j)) not in keys
        assert len(split.negatives) == len(split.positives)
        assert len({tuple(p) for p in split.negatives.tolist()}) == \
            len(split.negatives)

    def test_no_isolated_train_nodes(self, karate):
        split = make_split(karate, 0.1, seed=2)
        assert (split.train.degrees >= 1).all()

    def test_impossible_split_rejected(self):
        # removing any edge of a single-edge graph isolates both endpoints
        g = Graph(2, [[0, 1]])
        with pytest.raises(ValueError, match="withhold"):
            make_split(g, 0.5, seed=0)

    def test_bad_fraction(self, karate):
        with pytest.raises(ValueError):
            make_split(karate, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_split(karate, 1.0, seed=0)


class TestScorePairs:
    def test_parallel(self):
        emb = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert score_pairs(emb, [[0, 1]])[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        emb = np.array([[1.0, 0.0], [0.0, 3.0]])
        assert score_pairs(emb, [[0, 1]])[0] == pytest.approx(0.0)

    def test_opposite(self):
        emb = np.array([[1.0, 1.0], [-2.0, -2.0]])
        assert score_pairs(emb, [[0, 1]])[0] == pytest.approx(-1.0)

    def test_zero_norm_scores_zero(self):
        emb = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert score_pairs(emb, [[0, 1]])[0] == 0.0

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            score_pairs(np.zeros((2, 2)), [[0, 5]])


class TestRankAuc:
    def test_matches_rankdata_oracle(self):
        from scipy.stats import rankdata
        rng = np.random.default_rng(5)
        for trial in range(300):
            p, n = (int(x) for x in rng.integers(1, 40, size=2))
            scores = (rng.integers(0, 6, size=p + n) / 4.0 if trial % 3
                      else rng.standard_normal(p + n))  # mostly tie-heavy
            ranks = rankdata(scores)
            expected = float((ranks[:p].sum() - p * (p + 1) / 2.0) / (p * n))
            assert rank_auc(scores[:p], scores[p:]) == expected


class TestEvaluate:
    def _planted_split(self, n_pairs):
        """Split over a star graph with synthetic positives/negatives."""
        from corestab.evaluation import LinkPredSplit
        g = Graph(2 * n_pairs, [[i, i + 1] for i in range(2 * n_pairs - 1)])
        pos = np.array([[2 * i, 2 * i + 1] for i in range(n_pairs)])
        neg = np.array([[2 * i + 1, (2 * i + 2) % (2 * n_pairs)]
                        for i in range(n_pairs)])
        return LinkPredSplit(train=g, positives=pos, negatives=neg)

    def test_perfect_separation(self):
        split = self._planted_split(4)
        # embeddings where positive pairs align and negative pairs oppose
        emb = np.zeros((8, 2))
        for i in range(4):
            emb[2 * i] = [np.cos(i), np.sin(i)]
            emb[2 * i + 1] = emb[2 * i]  # same direction -> cosine 1
        scores = evaluate(emb, split)
        assert scores.f1 == 1.0
        assert scores.auc == 1.0

    def test_random_scores_near_half_auc(self):
        rng = np.random.default_rng(42)
        split = self._planted_split(500)
        emb = rng.normal(size=(1000, 8))
        scores = evaluate(emb, split)
        assert abs(scores.auc - 0.5) <= 0.05

    def test_f1_equals_precision_recall(self):
        rng = np.random.default_rng(7)
        split = self._planted_split(50)
        emb = rng.normal(size=(100, 4))
        scores = evaluate(emb, split)
        all_scores = np.concatenate([score_pairs(emb, split.positives),
                                     score_pairs(emb, split.negatives)])
        order = np.argsort(-all_scores, kind="stable")
        predicted = set(order[:50].tolist())
        tp = len([i for i in predicted if i < 50])
        precision = tp / 50
        recall = tp / 50
        assert scores.f1 == pytest.approx(precision)
        assert scores.f1 == pytest.approx(recall)

    def test_auc_invariant_under_monotone_transform(self):
        from corestab.evaluation import rank_auc
        rng = np.random.default_rng(9)
        pos = rng.normal(size=40)
        neg = rng.normal(size=40)
        base = rank_auc(pos, neg)
        for f in (np.exp, lambda x: x ** 3, lambda x: 10 * x + 2):
            assert rank_auc(f(pos), f(neg)) == pytest.approx(base)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        split = self._planted_split(20)
        emb = rng.normal(size=(40, 3))
        a = evaluate(emb, split)
        b = evaluate(emb, split)
        assert a == b

    def test_constant_embedding_scores_half(self):
        # every pair ties, so the threshold's p slots go to 2p pairs at
        # random: F1 is 0.5 in expectation, in line with the AUC
        split = self._planted_split(6)
        scores = evaluate(np.ones((12, 3)), split)
        assert scores.f1 == 0.5
        assert scores.auc == 0.5
        assert scores.threshold == pytest.approx(1.0)

    def test_tie_at_threshold_counts_by_expectation(self):
        # one positive and one negative tie for the last of 2 slots; the
        # other positive is above the threshold and counts in full
        from corestab.evaluation import LinkPredSplit
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [1.0, 0.0], [-1.0, 0.0]])
        split = LinkPredSplit(train=Graph(6, [[0, 1]]),
                              positives=np.array([[0, 1], [2, 3]]),
                              negatives=np.array([[2, 4], [4, 5]]))
        scores = evaluate(emb, split)
        assert scores.threshold == pytest.approx(np.sqrt(0.5))
        assert scores.f1 == pytest.approx(0.75)
        assert scores.auc == pytest.approx(0.875)

    def test_non_finite_embedding_rejected(self):
        split = self._planted_split(2)
        emb = np.ones((4, 2))
        emb[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(emb, split)

    def test_empty_test_set(self):
        from corestab.evaluation import LinkPredSplit
        split = LinkPredSplit(train=Graph(2, [[0, 1]]),
                              positives=np.zeros((0, 2), dtype=np.int64),
                              negatives=np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 2)), split)


class TestStabilityErrorDistribution:
    def test_zero_when_matching(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(5, 3))
        core = np.array([0, 2, 4])
        got = stability_error_distribution(emb, emb[core], core)
        assert np.allclose(got, 0.0)

    def test_sorted_and_sums_to_penalty(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(8, 3))
        ref = rng.normal(size=(4, 3))
        core = np.array([1, 3, 5, 7])
        got = stability_error_distribution(emb, ref, core)
        assert (np.diff(got) >= 0).all()
        assert got.sum() == pytest.approx(
            instability_penalty(emb, ref, core))

    def test_small_core_rejected(self):
        with pytest.raises(ValueError):
            stability_error_distribution(np.zeros((3, 2)), np.zeros((1, 2)),
                                         [0])

    @pytest.mark.parametrize("core,ref_rows,match", [
        ([-1, 0], 2, "outside"), ([0, 3], 2, "outside"),
        ([0, 1], 3, "do not match")])
    def test_core_ids_checked_like_the_penalty(self, core, ref_rows, match):
        # row -1 once read the last embedding row without complaint
        emb = np.random.default_rng(5).normal(size=(3, 2))
        ref = np.zeros((ref_rows, 2))
        for f in (stability_error_distribution, instability_penalty):
            with pytest.raises(ValueError, match=match):
                f(emb, ref, core)


class TestSplitOnRandomGraphs:
    def test_invariants_hold_across_seeds(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            g = random_er(rng, 40, 0.2)
            if (g.degrees == 0).any() or g.m < 20:
                continue
            split = make_split(g, 0.1, seed=seed)
            assert (split.train.degrees >= 1).all()
            assert split.train.m + len(split.positives) == g.m
