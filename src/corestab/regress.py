"""Ordinary least squares of per-shell drift against subgraph-feature deltas.

Each pair of adjacent processed shells in a shave-and-re-embed report yields
one sample: the instability increment regressed on the changes in subgraph
size, edge density, mean clustering, and transitivity.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

FEATURE_NAMES = ("intercept", "d_size", "d_edge_density",
                 "d_clustering_coefficient", "d_transitivity")


@dataclass(frozen=True)
class RegressionSample:
    d_emd: float
    d_size: float
    d_edge_density: float
    d_clustering: float
    d_transitivity: float
    source: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegressionFit:
    coefficients: np.ndarray   # intercept first, then feature deltas
    std_errors: np.ndarray
    ci_lower: np.ndarray       # 95% bounds, t distribution with n-5 dof
    ci_upper: np.ndarray
    r_squared: float
    samples: int

    def to_dict(self):
        return {
            "feature_names": list(FEATURE_NAMES),
            "coefficients": [float(x) for x in self.coefficients],
            "std_errors": [float(x) for x in self.std_errors],
            "ci_lower": [float(x) for x in self.ci_lower],
            "ci_upper": [float(x) for x in self.ci_upper],
            "r_squared": self.r_squared,
            "samples": self.samples,
        }


def collect_samples(reports):
    """One sample per adjacent processed-shell pair, pooled across reports."""
    samples = []
    for report in reports:
        if len(report.records) < 2:
            raise ValueError(
                f"report {report.dataset!r} has fewer than 2 records")
        for prev, cur in zip(report.records, report.records[1:]):
            fp, fc = prev.features, cur.features
            samples.append(RegressionSample(
                d_emd=float(cur.delta),
                d_size=float(fc.size - fp.size),
                d_edge_density=fc.edge_density - fp.edge_density,
                d_clustering=(fc.avg_clustering_coefficient
                              - fp.avg_clustering_coefficient),
                d_transitivity=fc.transitivity - fp.transitivity,
                source={
                    "dataset": report.dataset,
                    "k": cur.k,
                    "algorithm": report.embedder.get("algorithm", "external"),
                    "dim": report.embedder.get("dim"),
                },
            ))
    return samples


def design_matrix(samples):
    x = np.array([[1.0, s.d_size, s.d_edge_density, s.d_clustering,
                   s.d_transitivity] for s in samples])
    y = np.array([s.d_emd for s in samples])
    return x, y


def ols_fit(samples):
    """Closed-form OLS with standard errors and 95% confidence intervals.

    Solved by SVD least squares (rank revealing); errors from the classical
    sigma^2 (X'X)^-1 with n-5 residual degrees of freedom.
    """
    n = len(samples)
    k = len(FEATURE_NAMES)
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} samples, got {n}")
    x, y = design_matrix(samples)
    if np.linalg.matrix_rank(x) < k:
        raise ValueError("design matrix is rank deficient")
    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    rss = float(resid @ resid)
    dof = n - k
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se = np.sqrt(np.diag(cov))
    crit = stdtrit(dof, 0.975)  # Student t quantile
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    return RegressionFit(
        coefficients=beta, std_errors=se,
        ci_lower=beta - crit * se, ci_upper=beta + crit * se,
        r_squared=float(r2), samples=n)
