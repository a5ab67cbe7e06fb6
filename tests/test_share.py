import numpy as np
import pytest

from corestab.embed import EmbedSpec
from corestab.graph import Graph
from corestab.share import (ShareEmbedderError, ShareReport, emd_1d,
                            max_instability_shell, pairwise_distribution,
                            run_share)

from conftest import complete_graph, desk_graph, emd_lp


class TestPairwiseDistribution:
    def test_identical_rows(self):
        emb = np.zeros((2, 3))
        assert list(pairwise_distribution(emb, [0, 1])) == [0.0]

    def test_3_4_5(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        got = pairwise_distribution(emb, [0, 1, 2])
        assert np.allclose(got, [0.0, 5.0, 5.0])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(10, 4))
        got = pairwise_distribution(emb, np.arange(10))
        expected = sorted(
            float(np.linalg.norm(emb[i] - emb[j]))
            for i in range(10) for j in range(i + 1, 10))
        assert np.allclose(got, expected)

    def test_core_too_small(self):
        with pytest.raises(ValueError):
            pairwise_distribution(np.zeros((3, 2)), [1])

    def test_cosine_metric(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = pairwise_distribution(emb, [0, 1], metric="cosine")
        assert np.allclose(got, [1.0])


class TestEmd1d:
    def test_identical(self):
        assert emd_1d([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unsorted_rejected(self):
        for a, b in (([2.0, 1.0], [1.0, 2.0]), ([0.0], [3.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="sorted"):
                emd_1d(a, b)
            with pytest.raises(ValueError, match="sorted"):
                emd_1d(b, a)

    def test_point_masses(self):
        assert emd_1d([0.0], [3.5]) == pytest.approx(3.5)

    def test_half(self):
        assert emd_1d([0.0, 1.0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emd_1d([], [1.0])

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            a = np.sort(rng.normal(size=int(rng.integers(1, 11))))
            b = np.sort(rng.normal(size=int(rng.integers(1, 11))))
            assert emd_1d(a, b) == pytest.approx(emd_lp(a, b), abs=1e-9)

    def test_equal_sizes_match_merged_cdf_form(self):
        # equal sizes take the quantile form; scipy integrates the CDFs
        from scipy.stats import wasserstein_distance
        rng = np.random.default_rng(34)
        for size in (1, 2, 7, 5000):
            a = np.sort(np.round(rng.normal(size=size), 2))  # ties included
            b = np.sort(np.round(rng.normal(0.3, 2.0, size=size), 2))
            assert emd_1d(a, b) == pytest.approx(
                wasserstein_distance(a, b), rel=1e-12, abs=1e-15)

    def test_metric_properties(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            a = np.sort(rng.normal(size=int(rng.integers(1, 8))))
            b = np.sort(rng.normal(size=int(rng.integers(1, 8))))
            c = np.sort(rng.normal(size=int(rng.integers(1, 8))))
            ab, ba = emd_1d(a, b), emd_1d(b, a)
            assert abs(ab - ba) <= 1e-12
            assert ab >= 0
            assert emd_1d(a, c) <= ab + emd_1d(b, c) + 1e-12
        sample = np.sort(rng.normal(size=5))
        assert emd_1d(sample, sample.copy()) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(33)
        emb = rng.normal(size=(8, 3))
        other = rng.normal(size=(8, 3))
        core = np.arange(8)
        base = emd_1d(pairwise_distribution(emb, core),
                      pairwise_distribution(other, core))
        for c in (0.5, 2.0, 17.0):
            scaled = emd_1d(pairwise_distribution(c * emb, core),
                            pairwise_distribution(c * other, core))
            assert scaled == pytest.approx(c * base, rel=1e-12)


class TestRunShare:
    def test_baseline_record(self):
        g = desk_graph()
        report = run_share(g, EmbedSpec("line1", 3, batches=10), seed=5)
        assert report.records[0].k == 0
        assert report.records[0].emd == 0.0
        assert report.records[0].delta is None

    def test_ks_strictly_increasing_with_deltas(self):
        g = desk_graph()
        report = run_share(g, EmbedSpec("line1", 3, batches=10), seed=5)
        ks = [r.k for r in report.records]
        assert ks == sorted(set(ks)) == [0, 1, 4]
        for r in report.records[1:]:
            assert r.delta is not None

    def test_karate_line_shells(self, karate):
        report = run_share(karate, EmbedSpec("line1", 2, batches=10), seed=1)
        assert [r.k for r in report.records] == [0, 1, 2, 3, 4]

    def test_clique_single_record(self):
        report = run_share(complete_graph(8),
                           EmbedSpec("line1", 2, batches=10), seed=1)
        assert len(report.records) == 1
        assert report.records[0].emd == 0.0

    def test_deterministic(self, karate):
        spec = EmbedSpec("line1", 2, batches=5)
        a = run_share(karate, spec, seed=3)
        b = run_share(karate, spec, seed=3)
        assert [r.emd for r in a.records] == [r.emd for r in b.records]

    def test_callable_embedder_and_failure(self):
        g = desk_graph()
        calls = []

        def embedder(sub, seed, k):
            calls.append(k)
            if k == 4:
                raise RuntimeError("boom")
            rng = np.random.default_rng(seed)
            return rng.normal(size=(sub.n, 2))

        with pytest.raises(ShareEmbedderError) as info:
            run_share(g, embedder, seed=2)
        assert info.value.k == 4
        assert [r.k for r in info.value.partial.records] == [0, 1]

    def test_one_thread_runs_shells_in_calling_thread(self):
        import threading
        seen = []

        def embedder(sub, seed, k):
            seen.append((k, threading.get_ident()))
            return np.random.default_rng(seed).normal(size=(sub.n, 2))

        run_share(desk_graph(), embedder, seed=2)
        assert seen == [(k, threading.get_ident()) for k in (0, 1, 4)]

    def test_failure_partial_report_and_distributions(self):
        def embedder(sub, seed, k):
            if k == 4:
                raise RuntimeError("boom")
            return np.random.default_rng(seed).normal(size=(sub.n, 2))

        handed = []
        with pytest.raises(ShareEmbedderError) as info:
            run_share(desk_graph(), embedder, seed=2,
                      on_distribution=lambda k, d: handed.append(k))
        partial = info.value.partial
        assert isinstance(info.value.__cause__, RuntimeError)
        assert [r.k for r in partial.records] == [0, 1]
        assert handed == [0, 1]
        assert partial.records[1].delta == partial.records[1].emd

    def test_core_too_small(self):
        with pytest.raises(ValueError):
            run_share(Graph(1, []), EmbedSpec("line1", 2), seed=0)

    def test_report_roundtrip(self, karate):
        report = run_share(karate, EmbedSpec("line1", 2, batches=5), seed=3)
        again = ShareReport.from_dict(report.to_dict())
        assert [r.k for r in again.records] == [r.k for r in report.records]
        assert [r.emd for r in again.records] == [r.emd for r in report.records]


class TestMaxInstabilityShell:
    def _report(self, deltas):
        from corestab.graph import SubgraphFeatures
        from corestab.share import ShareRecord
        feats = SubgraphFeatures(1, 0.0, 0.0, 0.0)
        records = [ShareRecord(0, 0.0, None, feats)]
        emd = 0.0
        for k, d in deltas.items():
            emd += d
            records.append(ShareRecord(k, emd, d, feats))
        return ShareReport("x", 0, "euclidean", {}, records)

    def test_argmax(self):
        report = self._report({1: 0.1, 2: 0.9, 3: 0.05})
        assert max_instability_shell(report) == 2

    def test_tie_prefers_smaller_k(self):
        report = self._report({1: 0.5, 2: 0.5, 3: 0.5})
        assert max_instability_shell(report) == 1

    def test_too_few_records(self):
        report = self._report({})
        with pytest.raises(ValueError):
            max_instability_shell(report)
