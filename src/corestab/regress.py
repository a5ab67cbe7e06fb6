"""Ordinary least squares of per-shell drift against subgraph-feature deltas.

Each pair of adjacent processed shells in a shave-and-re-embed report yields
one sample: the instability increment regressed on the changes in subgraph
size, edge density, mean clustering, and transitivity.
"""

from dataclasses import astuple, dataclass

import numpy as np
from scipy.special import stdtrit

# the intercept, then one delta per SubgraphFeatures field, in field order
FEATURE_NAMES = ("intercept", "d_size", "d_edge_density",
                 "d_clustering_coefficient", "d_transitivity")


@dataclass(frozen=True)
class RegressionFit:
    coefficients: np.ndarray   # intercept first, then feature deltas
    std_errors: np.ndarray
    ci_lower: np.ndarray       # 95% bounds, t distribution with n-k dof
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
    """One sample per adjacent processed-shell pair, pooled across reports,
    as ``(x, y, sources)``: an intercept column, then the change in each
    ``SubgraphFeatures`` field (labelled by ``FEATURE_NAMES``); the
    instability increments; and a ``{dataset, algorithm, dim, k}`` dict per
    sample."""
    deltas, y, sources = [], [], []
    for report in reports:
        records = report.records
        if len(records) < 2:
            raise ValueError(
                f"report {report.dataset!r} has fewer than 2 records")
        deltas.append(np.diff([astuple(r.features) for r in records], axis=0))
        y += [r.delta for r in records[1:]]
        source = {"dataset": report.dataset,
                  "algorithm": report.embedder.get("algorithm", "external"),
                  "dim": report.embedder.get("dim")}
        sources += [{**source, "k": r.k} for r in records[1:]]
    x = np.vstack(deltas)
    return np.column_stack([np.ones(len(x)), x]), np.array(y, float), sources


def ols_fit(x, y):
    """Closed-form OLS of ``y`` on the columns of ``x`` with standard errors
    and 95% confidence intervals.

    Solved by SVD least squares (rank revealing); errors from the classical
    sigma^2 (X'X)^-1 with n-k residual degrees of freedom.
    """
    n, k = x.shape
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} samples, got {n}")
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
