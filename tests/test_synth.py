import numpy as np
import pytest
from scipy.stats import binom, chisquare

from corestab.graph import core_decomposition
from corestab.synth import GenSpec, generate

from conftest import desk_graph


class TestGenSpec:
    def test_er_needs_p(self):
        with pytest.raises(ValueError):
            GenSpec("er", 100)

    def test_ba_needs_valid_m(self):
        with pytest.raises(ValueError):
            GenSpec("ba", 100)
        with pytest.raises(ValueError):
            GenSpec("ba", 100, m_attach=100)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            GenSpec("bter", 100, p=0.5)

    def test_roundtrip(self):
        spec = GenSpec("er", 10, p=0.3)
        assert GenSpec.from_dict(spec.to_dict()) == spec
        # the seed is an argument of generate, not a spec field
        with pytest.raises(ValueError, match=r"\['seed'\]"):
            GenSpec.from_dict({**spec.to_dict(), "seed": 4})


class TestErdosRenyi:
    def test_edge_count_within_3_sigma(self):
        n, p = 5000, 0.002
        g = generate(GenSpec("er", n, p=p), seed=0)
        pairs = n * (n - 1) / 2
        mean = pairs * p
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(g.m - mean) <= 3 * sigma

    def test_deterministic(self):
        spec = GenSpec("er", 200, p=0.05)
        assert np.array_equal(generate(spec, seed=9).edges,
                              generate(spec, seed=9).edges)

    def test_degree_distribution_chi2(self):
        # goodness of fit against Binomial(n-1, p) at alpha=0.01, 5 seeds
        n, p = 800, 0.02
        probs = binom.pmf(np.arange(n), n - 1, p)
        for seed in range(5):
            g = generate(GenSpec("er", n, p=p), seed=seed)
            degrees = g.degrees
            counts = np.bincount(degrees, minlength=n)
            # merge bins so every expected count is >= 5
            expected = probs * n
            bins, exp_bins = [], []
            acc_c, acc_e = 0.0, 0.0
            for c, e in zip(counts, expected):
                acc_c += c
                acc_e += e
                if acc_e >= 5.0:
                    bins.append(acc_c)
                    exp_bins.append(acc_e)
                    acc_c, acc_e = 0.0, 0.0
            bins[-1] += acc_c
            exp_bins[-1] += acc_e
            stat, pvalue = chisquare(bins, np.array(exp_bins) *
                                     (sum(bins) / sum(exp_bins)))
            assert pvalue > 0.01, f"seed {seed}: chi2 p={pvalue}"

    def test_p_zero_and_one(self):
        assert generate(GenSpec("er", 10, p=0.0), seed=0).m == 0
        assert generate(GenSpec("er", 10, p=1.0), seed=0).m == 45


class TestBarabasiAlbert:
    def test_exact_edge_count(self):
        g = generate(GenSpec("ba", 5000, m_attach=5), seed=0)
        assert g.m == 5 * (5000 - 5)

    def test_degeneracy_equals_attachment(self):
        for seed in range(3):
            for m in (2, 5):
                g = generate(GenSpec("ba", 400, m_attach=m), seed=seed)
                assert core_decomposition(g).k_max == m

    def test_deterministic(self):
        spec = GenSpec("ba", 300, m_attach=3)
        assert np.array_equal(generate(spec, seed=11).edges,
                              generate(spec, seed=11).edges)

    def test_min_degree_at_least_m(self):
        g = generate(GenSpec("ba", 500, m_attach=4), seed=2)
        arrivals = g.degrees[4:]
        assert (arrivals >= 4).all()


class TestDeskGraph:
    def test_shape(self):
        g = desk_graph()
        assert g.n == 14 and g.m == 25
        cm = core_decomposition(g)
        assert cm.k_max == 4
        assert len(cm.degenerate_core) == 10
        # pendant periphery keeps the core strictly inside the graph
        assert len(cm.degenerate_core) < g.n
