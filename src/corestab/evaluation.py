"""Link-prediction harness and stability-error measurement.

The split withholds a fraction of edges as positives (never isolating a
train node) and samples an equal number of true non-edges as negatives.
Scoring is cosine similarity; the decision threshold admits exactly as many
positive predictions as there are true positives, under which precision,
recall and F1 coincide.  Pairs tied at the threshold share its remaining
slots at random, and F1 counts them by expectation: a constant embedding
scores F1 = 0.5, as it scores AUC = 0.5.
"""

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .stable import _core_gap_blocks


@dataclass
class LinkPredSplit:
    train: Graph
    positives: np.ndarray  # (p, 2) dense node ids
    negatives: np.ndarray  # (p, 2) dense node ids, non-edges of the original


@dataclass(frozen=True)
class EvalScores:
    f1: float
    auc: float
    threshold: float


def make_split(g, fraction, seed):
    """Deterministic train/test split for link prediction.

    Edges enter the test set in a seeded shuffled order, skipping any edge
    whose removal would isolate a train node (one full scan is the retry
    cap).  Negatives are sampled uniformly from non-edges of the original
    graph, without replacement.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    m = g.m
    target = int(round(fraction * m))
    if target < 1:
        raise ValueError("fraction withholds no edges")
    rng = np.random.default_rng(seed)
    deg = g.degrees.copy()
    chosen = []
    for e in rng.permutation(m):
        if len(chosen) == target:
            break
        i, j = g.edges[e]
        if deg[i] > 1 and deg[j] > 1:
            chosen.append(e)
            deg[i] -= 1
            deg[j] -= 1
    if len(chosen) < target:
        raise ValueError(
            f"could only withhold {len(chosen)}/{target} edges without "
            "isolating a train node")
    test_mask = np.zeros(m, dtype=bool)
    test_mask[chosen] = True
    positives = g.edges[chosen]
    train = Graph(g.n, g.edges[~test_mask], g.weights[~test_mask], g.orig_ids)

    present = g.edge_key_set()
    negatives = []
    seen = set()
    attempts = 0
    cap = 200 * target + 1000
    while len(negatives) < target:
        attempts += 1
        if attempts > cap:
            raise ValueError("could not sample enough non-edges (graph too dense)")
        u = int(rng.integers(g.n))
        v = int(rng.integers(g.n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present or key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    return LinkPredSplit(train=train, positives=positives,
                         negatives=np.array(negatives, dtype=np.int64))


def score_pairs(emb, pairs):
    """Cosine similarity per pair; rows with zero norm score 0."""
    emb = np.asarray(emb, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= emb.shape[0]):
        raise ValueError("pair ids outside embedding rows")
    a = emb[pairs[:, 0]]
    b = emb[pairs[:, 1]]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    dots = np.einsum("pd,pd->p", a, b)
    return np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)


def rank_auc(pos_scores, neg_scores):
    """Probability a random positive outscores a random negative (ties 0.5)."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    p, n = len(pos_scores), len(neg_scores)
    if p == 0 or n == 0:
        raise ValueError("need both positive and negative scores")
    # average ranks: a group of tied scores shares the mean of its positions
    _, group, counts = np.unique(np.concatenate([pos_scores, neg_scores]),
                                 return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[:p].sum() - p * (p + 1) / 2.0) / (p * n))


def evaluate(emb, split):
    """F1 (threshold set to the true positive count) and rank-based AUC.

    The threshold is the p-th highest score, for p positives.  Pairs above
    it are predicted; the slots left go to the pairs tied at it, so each
    tied positive counts slots / (pairs tied), its chance of a slot under a
    random tie break.  Tied scores contribute 0.5 to the AUC.  Under this
    threshold rule precision, recall and F1 coincide.  A non-finite
    embedding is refused.
    """
    p = len(split.positives)
    if p == 0:
        raise ValueError("empty test set")
    if not np.isfinite(emb).all():
        raise ValueError("non-finite embedding")
    pos_scores = score_pairs(emb, split.positives)
    neg_scores = score_pairs(emb, split.negatives)
    scores = np.concatenate([pos_scores, neg_scores])
    threshold = float(np.partition(scores, len(scores) - p)[len(scores) - p])
    above = scores > threshold
    tied = scores == threshold
    slots = p - int(above.sum())
    tp = (int(above[:p].sum())
          + slots * int(tied[:p].sum()) / int(tied.sum()))
    auc = rank_auc(pos_scores, neg_scores)
    return EvalScores(f1=float(tp / p), auc=auc, threshold=threshold)


def stability_error_distribution(emb, isolated_core, core):
    """Sorted squared proximity gaps of all unordered core pairs; they sum
    to the stability penalty."""
    k = len(core)
    if k < 2:
        raise ValueError("need at least 2 core nodes")
    gaps = np.empty(k * (k - 1) // 2)
    pos = 0
    for seg in _core_gap_blocks(emb, isolated_core, core):
        gaps[pos:pos + seg.size] = seg
        pos += seg.size
    gaps.sort()
    return gaps
