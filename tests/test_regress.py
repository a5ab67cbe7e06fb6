import numpy as np
import pytest

from corestab.graph import SubgraphFeatures
from corestab.regress import (RegressionSample, collect_samples,
                              design_matrix, ols_fit)
from corestab.share import ShareRecord, ShareReport


def report_with_features(rows, dataset="g", algorithm="line1", dim=10):
    """rows: list of (k, emd, delta, size, density, clustering, transitivity)."""
    records = []
    for k, emd, delta, size, dens, clust, trans in rows:
        records.append(ShareRecord(
            k, emd, delta, SubgraphFeatures(size, dens, clust, trans)))
    return ShareReport(dataset, 0, "euclidean",
                       {"algorithm": algorithm, "dim": dim}, records)


def planted_samples(rng, n, coef=2.0, noise=1e-6):
    samples = []
    for _ in range(n):
        d_size, d_dens, d_clust, d_trans = rng.normal(size=4)
        d_emd = coef * d_dens + rng.normal() * noise
        samples.append(RegressionSample(d_emd, d_size, d_dens, d_clust,
                                        d_trans))
    return samples


class TestCollectSamples:
    def test_counts(self):
        rows = [(0, 0.0, None, 30, 0.1, 0.2, 0.3)]
        for k in range(1, 5):
            rows.append((k, 0.1 * k, 0.1, 30 - k, 0.1, 0.2, 0.3))
        samples = collect_samples([report_with_features(rows)])
        assert len(samples) == 4

    def test_constant_features_zero_deltas(self):
        rows = [(0, 0.0, None, 10, 0.5, 0.5, 0.5),
                (1, 0.2, 0.2, 10, 0.5, 0.5, 0.5)]
        sample = collect_samples([report_with_features(rows)])[0]
        assert sample.d_size == 0.0
        assert sample.d_edge_density == 0.0
        assert sample.d_emd == pytest.approx(0.2)

    def test_short_report_rejected(self):
        rows = [(0, 0.0, None, 10, 0.5, 0.5, 0.5)]
        with pytest.raises(ValueError):
            collect_samples([report_with_features(rows)])

    def test_pooled_count(self):
        reports = []
        total = 0
        for i, nrec in enumerate((3, 5, 2)):
            rows = [(0, 0.0, None, 10, 0.1, 0.1, 0.1)]
            for k in range(1, nrec):
                rows.append((k, 0.1 * k, 0.1, 10 - k, 0.1, 0.1, 0.1))
            reports.append(report_with_features(rows, dataset=f"g{i}"))
            total += nrec - 1
        assert len(collect_samples(reports)) == total


class TestOlsFit:
    def test_planted_density_coefficient(self):
        rng = np.random.default_rng(0)
        fit = ols_fit(planted_samples(rng, 200))
        assert fit.coefficients[2] == pytest.approx(2.0, abs=1e-3)
        for idx in (0, 1, 3, 4):
            assert abs(fit.coefficients[idx]) < 1e-3
        assert fit.r_squared > 0.999

    def test_ci_bounds_bracket_estimates(self):
        rng = np.random.default_rng(1)
        fit = ols_fit(planted_samples(rng, 50, noise=0.1))
        assert (fit.ci_lower <= fit.coefficients).all()
        assert (fit.coefficients <= fit.ci_upper).all()

    def test_ci_matches_student_t_oracle(self):
        from scipy.stats import t
        rng = np.random.default_rng(4)
        for n in (6, 7, 10, 40, 300):
            fit = ols_fit(planted_samples(rng, n, noise=0.1))
            crit = t.ppf(0.975, n - 5)
            assert np.array_equal(fit.ci_lower,
                                  fit.coefficients - crit * fit.std_errors)
            assert np.array_equal(fit.ci_upper,
                                  fit.coefficients + crit * fit.std_errors)

    def test_noise_target_ci_calibration(self):
        rng = np.random.default_rng(2)
        contains = 0
        total = 0
        for _ in range(50):
            samples = []
            for _ in range(1000):
                x = rng.normal(size=4)
                samples.append(RegressionSample(rng.normal(), *x))
            fit = ols_fit(samples)
            for j in range(5):
                total += 1
                if fit.ci_lower[j] <= 0.0 <= fit.ci_upper[j]:
                    contains += 1
        assert contains / total >= 0.90

    def test_matches_qr_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            samples = planted_samples(rng, 100, noise=0.5)
            x, y = design_matrix(samples)
            q, r = np.linalg.qr(x)
            beta_qr = np.linalg.solve(r, q.T @ y)
            fit = ols_fit(samples)
            assert np.allclose(fit.coefficients, beta_qr, atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(4)
        samples = planted_samples(rng, 80, noise=0.3)
        x, y = design_matrix(samples)
        fit = ols_fit(samples)
        resid = y - x @ fit.coefficients
        for j in range(x.shape[1]):
            bound = 1e-8 * np.linalg.norm(resid) * np.linalg.norm(x[:, j])
            assert abs(resid @ x[:, j]) <= max(bound, 1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        samples = planted_samples(rng, 60, noise=0.2)
        fit_a = ols_fit(samples)
        fit_b = ols_fit(list(reversed(samples)))
        assert np.allclose(fit_a.coefficients, fit_b.coefficients)

    def test_too_few_samples(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="at least"):
            ols_fit(planted_samples(rng, 5))

    def test_rank_deficiency(self):
        samples = [RegressionSample(1.0, 0.0, 0.0, 0.0, 0.0)
                   for _ in range(10)]
        with pytest.raises(ValueError, match="rank"):
            ols_fit(samples)
