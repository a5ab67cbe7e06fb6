"""Shave-and-re-embed stability measurement.

Peel k-shells from the periphery inward, re-embed each surviving k-core with
a fresh seeded run, and track how far the distribution of pairwise distances
among degenerate-core nodes drifts from the full-graph baseline (earth
mover's distance), plus the per-shell instability increments.
"""

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import pdist

from ._util import derive_seed, json_fields
from .embed import EmbedSpec, embed_graph
from .graph import SubgraphFeatures, core_decomposition, subgraph_features

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShareRecord:
    k: int
    emd: float
    delta: Optional[float]  # None on the baseline record
    features: SubgraphFeatures


@dataclass
class ShareReport:
    dataset: str
    seed: int
    metric: str
    embedder: dict
    records: list

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "dataset": self.dataset,
            "seed": self.seed,
            "metric": self.metric,
            "embedder": self.embedder,
            "records": [
                {"k": r.k, "emd": r.emd, "delta": r.delta, **asdict(r.features)}
                for r in self.records
            ],
        }

    @classmethod
    def from_dict(cls, d):
        """The report of a ``to_dict`` form, checked: a value that is not a
        JSON object, a missing key, a value of the wrong type, or a null
        delta past the baseline record raises ValueError naming the key."""
        kwargs = json_fields(cls, d, strict=False)
        records = []
        for i, r in enumerate(kwargs["records"]):
            try:
                features = SubgraphFeatures(
                    **json_fields(SubgraphFeatures, r, strict=False))
                rec = ShareRecord(**json_fields(
                    ShareRecord, {**r, "features": features}, strict=False))
                if i and rec.delta is None:
                    raise ValueError("key 'delta' is null past the baseline")
            except ValueError as exc:
                raise ValueError(f"records[{i}]: {exc}") from None
            records.append(rec)
        return cls(**{**kwargs, "records": records})


class ShareEmbedderError(RuntimeError):
    """A shell failed; carries the shell and the partial report."""

    def __init__(self, k, partial, cause):
        super().__init__(f"shell k={k} failed: {cause}")
        self.k = k
        self.partial = partial


def pairwise_distribution(emb, core, metric="euclidean"):
    """Sorted distances between all unordered pairs of core rows."""
    core = np.asarray(core, dtype=np.int64)
    if len(core) < 2:
        raise ValueError("need at least 2 core nodes")
    if core.min() < 0 or core.max() >= emb.shape[0]:
        raise ValueError("core ids outside embedding rows")
    d = pdist(np.asarray(emb, dtype=np.float64)[core], metric=metric)
    d.sort()
    return d


def emd_1d(a, b):
    """Exact 1-d earth mover's distance between two empirical distributions,
    each given as an ascending sample (ValueError otherwise).

    For samples of equal size it is the mean gap between matching order
    statistics, mean|a_(i) - b_(i)|; otherwise it integrates |F_a - F_b|
    over the merged breakpoints of the two samples.  Symmetric and
    nonnegative, zero iff the multisets are equal.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty distribution")
    if (a[1:] < a[:-1]).any() or (b[1:] < b[:-1]).any():
        raise ValueError("emd_1d needs samples sorted in ascending order")
    if len(a) == len(b):
        return float(np.mean(np.abs(a - b)))
    grid = np.sort(np.concatenate([a, b]))
    widths = np.diff(grid)
    cdf_a = np.searchsorted(a, grid[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, grid[:-1], side="right") / len(b)
    return float(np.sum(np.abs(cdf_a - cdf_b) * widths))


def run_share(g, embedder, seed=0, dataset="", metric="euclidean",
              on_distribution=None):
    """Full shave-and-re-embed pass over every populated shell value.

    ``embedder`` is an EmbedSpec or a callable ``(subgraph, seed, k) -> matrix``
    whose rows align with the subgraph's dense ids (this is how externally
    produced embeddings are measured).  Shell values iterate over the distinct
    coreness values present, after a k=0 baseline on the full graph; when the
    degenerate core already spans the whole graph there is nothing to shave
    and the report holds the baseline record alone.  Each shell re-embeds with
    a seed derived from (seed, k), so runs are independent but reproducible.

    Shells run one at a time in the calling thread, and only the baseline's
    distances outlive their shell: ``on_distribution(k, dist)``, if given,
    receives each shell's sorted core-pair distances once it is measured.
    A failing shell raises ShareEmbedderError with the earlier shells' report.
    """
    is_spec = isinstance(embedder, EmbedSpec)
    cm = core_decomposition(g)
    core = cm.degenerate_core
    if len(core) < 2:
        raise ValueError("degenerate core has fewer than 2 nodes")
    features = subgraph_features(g, cm)
    ks = [0] if len(core) == g.n else list(features)

    def shell_distribution(k):
        kept = np.flatnonzero(cm.coreness >= k)
        sub = g.induced_subgraph(kept)
        shell_seed = derive_seed(seed, "shell", k)
        emb = (embed_graph(sub, embedder, shell_seed) if is_spec
               else embedder(sub, shell_seed, k))
        if emb.shape[0] != sub.n:
            raise ValueError(f"embedder returned {emb.shape[0]} rows for "
                             f"{sub.n}-node subgraph")
        dist = pairwise_distribution(emb, np.searchsorted(kept, core), metric)
        # sorted, so a NaN or inf lands last
        if not np.isfinite(dist[-1]):
            raise ValueError("non-finite core-pair distance: an embedding "
                             "row is non-finite, or all zeros under cosine")
        return dist

    report = ShareReport(dataset=dataset, seed=seed, metric=metric,
                         embedder=embedder.to_dict() if is_spec else {},
                         records=[])
    records = report.records
    for k in ks:
        try:
            dist = shell_distribution(k)
        except Exception as exc:  # keep earlier shells for the partial report
            raise ShareEmbedderError(k, report, exc) from exc
        if not records:
            baseline, emd, delta = dist, 0.0, None
        else:
            emd = emd_1d(dist, baseline)
            delta = emd - records[-1].emd
        records.append(ShareRecord(k, emd, delta, features[k]))
        if on_distribution is not None:
            on_distribution(k, dist)
        del dist  # free this shell before the next one is measured
    return report


def max_instability_shell(report):
    """Shell value with the largest instability increment (ties: smallest k)."""
    if len(report.records) < 2:
        raise ValueError("report needs at least 2 records")
    best_k, best = None, -np.inf
    for r in report.records[1:]:
        if r.delta > best:
            best_k, best = r.k, r.delta
    return best_k
