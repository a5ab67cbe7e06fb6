"""Core-stable embedding training.

Train a base embedding objective plus a penalty that pins the first-order
proximities among degenerate-core nodes to those of the core embedded in
isolation.  Each batch samples uniformly from the two sums the objective is
made of: an edge of the graph takes the base update (only when its weight is
positive), and an unordered pair of core nodes takes the penalty update.
Core pairs are drawn directly, never materialized.
"""

import logging
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import expit

from ._util import derive_seed
from .embed import (_CHUNK, LAPLACIAN_EIGENMAPS, LINE1, AliasTable,
                    EmbedSpec, _gather, _line_step, _SGDWorkspace, embed_graph,
                    line_base_loss, scatter_add)
from .graph import core_decomposition

log = logging.getLogger(__name__)

_DOT_CLIP = 35.0
_GAP_BLOCK = 512  # core rows per block of proximity gaps


class TrainingDivergence(RuntimeError):
    """A loss or the embedding matrix went non-finite."""

    def __init__(self, batch, message):
        super().__init__(f"diverged at batch {batch}: {message}")
        self.batch = batch


@dataclass
class StableConfig:
    """Hyperparameters for a stabilized training run.

    ``alpha`` scales the stability penalty; ``gamma`` and ``beta`` balance
    the spectral base's edge-attraction and anchor terms and are ignored by
    the SGD base.  Gradient expressions drop constant factors of 2, which
    are absorbed into ``lr`` and ``alpha``.
    """
    base: str
    dim: int = 10
    alpha: float = 10.0
    gamma: float = 0.1
    beta: float = 0.1
    lr: float = 0.025
    batches: int = 200
    negatives: int = 5
    seed: int = 0

    # paper-reported operating points per base algorithm
    DEFAULT_ALPHA = {LINE1: 10.0, LAPLACIAN_EIGENMAPS: 1e5}

    def __post_init__(self):
        if self.base not in (LINE1, LAPLACIAN_EIGENMAPS):
            raise ValueError(f"unknown base {self.base!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.base == LAPLACIAN_EIGENMAPS:
            if self.gamma <= 0:
                raise ValueError("gamma must be positive for the spectral base")
            if self.beta < 0:
                raise ValueError("beta must be >= 0")

    @classmethod
    def for_base(cls, base, **overrides):
        overrides.setdefault("alpha", cls.DEFAULT_ALPHA.get(base, 10.0))
        return cls(base=base, **overrides)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        base = d.pop("base", None)
        if base is None:
            raise ValueError("config is missing 'base'")
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls.for_base(base, **d)


@dataclass
class StableResult:
    embeddings: np.ndarray        # trained matrix, one row per node
    isolated_core: np.ndarray     # reference embedding of the core alone
    core_nodes: np.ndarray        # dense ids of the degenerate core
    base_loss: np.ndarray         # per-batch base objective
    stability_loss: np.ndarray    # per-batch penalty value
    initial: np.ndarray           # embedding before stabilized training
    config: StableConfig


def _clipped_sigmoid_rows(a, b):
    # overflow to inf is fine: the clip lands it on the saturation bound
    with np.errstate(over="ignore"):
        dots = np.einsum("...d,...d->...", a, b)
    return expit(np.clip(dots, -_DOT_CLIP, _DOT_CLIP))


def isolated_core_embedding(g, cm, spec):
    """Embed the induced subgraph on the degenerate core with the base engine.

    Rows follow core-local ids; the mapping back is ``cm.degenerate_core``
    (sorted dense ids).
    """
    core = cm.degenerate_core
    if len(core) < 2:
        raise ValueError("degenerate core has fewer than 2 nodes")
    return embed_graph(g.induced_subgraph(core), spec)


def stability_coefficient(u_i, u_j, s_hat):
    """Penalty gradient scale s (1 - s) (s - s_hat), s = sigma(u_i.u_j)."""
    s = _clipped_sigmoid_rows(u_i, u_j)
    return s * (1.0 - s) * (s - s_hat)


def stability_gradient(u_i, u_j, u_hat_i, u_hat_j):
    """Penalty gradient direction for u_i, constants dropped:
    sigma(u_i.u_j) [1 - sigma(u_i.u_j)] [sigma(u_i.u_j) - sigma(u_hat_i.u_hat_j)] u_j
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    u_j = np.asarray(u_j, dtype=np.float64)
    u_hat_i = np.asarray(u_hat_i, dtype=np.float64)
    u_hat_j = np.asarray(u_hat_j, dtype=np.float64)
    if not (u_i.shape == u_j.shape == u_hat_i.shape == u_hat_j.shape):
        raise ValueError("dimension mismatch")
    s_hat = _clipped_sigmoid_rows(u_hat_i, u_hat_j)
    return stability_coefficient(u_i, u_j, s_hat)[..., None] * u_j


def le_base_gradient(u_i, u_j, u_i0, w_ij, gamma, beta):
    """Spectral-base gradient for u_i, constants dropped:
    gamma w (u_i - u_j) + beta (u_i - u_i0), where u_i0 is the row's
    spectral initialization (the anchor replacing the orthogonality
    constraint of the eigenproblem).
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    u_j = np.asarray(u_j, dtype=np.float64)
    u_i0 = np.asarray(u_i0, dtype=np.float64)
    if not (u_i.shape == u_j.shape == u_i0.shape):
        raise ValueError("dimension mismatch")
    w = np.asarray(w_ij, dtype=np.float64)
    return gamma * w[..., None] * (u_i - u_j) + beta * (u_i - u_i0)


def _gap_blocks(core_emb, core_ref):
    """Squared first-order proximity gaps of the core pairs (r, c), c > r,
    one block of core rows at a time, in upper-triangular row order."""
    core_emb = np.asarray(core_emb, dtype=np.float64)
    core_ref = np.asarray(core_ref, dtype=np.float64)
    if core_emb.shape[0] != core_ref.shape[0]:
        raise ValueError("core embedding and reference row counts differ")
    k = core_emb.shape[0]
    for lo in range(0, k, _GAP_BLOCK):
        hi = min(k, lo + _GAP_BLOCK)
        with np.errstate(over="ignore"):
            dots = core_emb[lo:hi] @ core_emb.T
            dots_ref = core_ref[lo:hi] @ core_ref.T
        p = expit(np.clip(dots, -_DOT_CLIP, _DOT_CLIP))
        p_ref = expit(np.clip(dots_ref, -_DOT_CLIP, _DOT_CLIP))
        # row-major boolean indexing keeps the pairs (r, c), c > r, in order
        yield ((p - p_ref) ** 2)[np.arange(lo, hi)[:, None] < np.arange(k)]


def proximity_gaps_squared(core_emb, core_ref):
    """Squared first-order proximity gaps for all unordered core pairs.

    Returns the per-pair values in upper-triangular row order; their sum is
    the stability penalty.
    """
    k = np.shape(core_emb)[0]
    out = np.empty(k * (k - 1) // 2)
    pos = 0
    for seg in _gap_blocks(core_emb, core_ref):
        out[pos:pos + seg.size] = seg
        pos += seg.size
    return out


def instability_penalty(emb, isolated_core, core):
    """Sum of squared proximity gaps over all unordered core pairs, summed
    block by block without holding every gap."""
    core = np.asarray(core, dtype=np.int64)
    if isolated_core.shape[0] != len(core):
        raise ValueError("isolated-core rows do not match the core mapping")
    if len(core) and (core.min() < 0 or core.max() >= emb.shape[0]):
        raise ValueError("core ids outside embedding rows")
    blocks = _gap_blocks(emb[core], isolated_core)
    return float(sum(seg.sum() for seg in blocks))


def _le_base_loss(g, emb, init, gamma, beta):
    # overflow to inf is acceptable: it trips the divergence guard
    with np.errstate(over="ignore"):
        diffs = emb[g.edges[:, 0]] - emb[g.edges[:, 1]]
        edge_term = float((g.weights * np.einsum("ed,ed->e", diffs, diffs)).sum())
        return gamma * edge_term + beta * float(((emb - init) ** 2).sum())


def stable_train(g, cfg):
    """Stabilized SGD: base steps on edges, penalty steps on core pairs.

    Follows the generic recipe: embed the isolated core and the full graph
    with the base engine, then run ``cfg.batches`` sampling passes.  A batch
    is m + k(k-1)/2 uniform draws over the two sums of the objective, made
    one chunk at a time: a draw below m is that edge of ``g`` and takes a
    base gradient step when its weight is positive; any other draw is a
    uniform unordered pair of the k core nodes and takes a stability step
    scaled by ``lr * alpha``.  So each edge gets one base update and each
    core pair one penalty update per batch in expectation.  The learning
    rate decays linearly to zero.  One ``_SGDWorkspace`` per run holds the
    chunk temporaries of the line1 base step and of the penalty step.
    """
    if cfg.alpha == 0:
        log.warning("alpha=0: the stability penalty is disabled")
    cm = core_decomposition(g)
    core = cm.degenerate_core
    if len(core) < 2:
        raise ValueError("degenerate core has fewer than 2 nodes")
    # the isolated-core reference is the training target: embed it fully;
    # the full-graph embedding only initializes, so the SGD base gets a
    # short schedule and keeps improving during the stabilized pass
    ref_spec = EmbedSpec(cfg.base, cfg.dim, batches=cfg.batches,
                         negatives=cfg.negatives, lr=cfg.lr)
    init_spec = EmbedSpec(cfg.base, cfg.dim,
                          batches=max(1, cfg.batches // 5),
                          negatives=cfg.negatives, lr=cfg.lr)
    ref = isolated_core_embedding(
        g, cm, ref_spec.with_seed(derive_seed(cfg.seed, "isolated-core")))
    emb = np.array(embed_graph(
        g, init_spec.with_seed(derive_seed(cfg.seed, "full-init"))))
    init = emb.copy()

    edges, weights, m, k = g.edges, g.weights, g.m, len(core)
    draws = m + k * (k - 1) // 2
    is_line = cfg.base == LINE1
    noise = AliasTable(np.power(g.weighted_degrees, 0.75)) if is_line else None
    rng_draws = np.random.default_rng(derive_seed(cfg.seed, "edge-stream"))
    rng_negs = np.random.default_rng(derive_seed(cfg.seed, "noise-stream"))
    ws = _SGDWorkspace(cfg.negatives, cfg.dim)

    base_loss = np.empty(cfg.batches)
    stab_loss = np.empty(cfg.batches)
    for t in range(cfg.batches):
        lr_t = cfg.lr * (1.0 - t / cfg.batches)
        for lo in range(0, draws, _CHUNK):
            idx = rng_draws.integers(0, draws, size=min(_CHUNK, draws - lo))
            drawn = idx[idx < m]
            e = drawn[weights[drawn] > 0]
            if e.size:
                i_r, j_r = edges[e, 0], edges[e, 1]
                if is_line:
                    fl = rng_negs.random(e.size) < 0.5
                    negs = noise.draw(rng_negs, (e.size, cfg.negatives))
                    _line_step(emb, np.where(fl, j_r, i_r),
                               np.where(fl, i_r, j_r), negs, lr_t, ws)
                else:
                    w_r = weights[e]
                    u_i, u_j = emb[i_r], emb[j_r]
                    a_i, a_j = init[i_r], init[j_r]
                    g_i = le_base_gradient(u_i, u_j, a_i, w_r, cfg.gamma, cfg.beta)
                    g_j = le_base_gradient(u_j, u_i, a_j, w_r, cfg.gamma, cfg.beta)
                    scatter_add(emb, np.concatenate([i_r, j_r]),
                                -lr_t * np.concatenate([g_i, g_j]), ws)
            # the penalty reads the rows the base step above just wrote
            c = len(idx) - len(drawn)
            if cfg.alpha > 0 and c:
                # (r, r + offset) mod k is a uniform ordered pair of distinct
                # core positions: each unordered pair has chance 1/(k choose 2)
                pos_i = rng_draws.integers(0, k, size=c)
                pos_j = (pos_i + rng_draws.integers(1, k, size=c)) % k
                c_i, c_j = core[pos_i], core[pos_j]
                u_i = _gather(emb, c_i, ws.u_i[:c])
                u_j = _gather(emb, c_j, ws.u_j[:c])
                rows, upd = ws.rows[:2 * c], ws.updates[:2 * c]
                # the reference rows borrow the update buffer until s_hat
                s_hat = _clipped_sigmoid_rows(_gather(ref, pos_i, upd[:c]),
                                              _gather(ref, pos_j, upd[c:]))
                coef = (-lr_t * cfg.alpha * stability_coefficient(
                    u_i, u_j, s_hat))[:, None]
                rows[:c], rows[c:] = c_i, c_j
                np.multiply(coef, u_j, out=upd[:c])
                np.multiply(coef, u_i, out=upd[c:])
                scatter_add(emb, rows, upd, ws)
        if is_line:
            base_loss[t] = line_base_loss(g, emb)
        else:
            base_loss[t] = _le_base_loss(g, emb, init, cfg.gamma, cfg.beta)
        stab_loss[t] = instability_penalty(emb, ref, core)
        if not (np.isfinite(base_loss[t]) and np.isfinite(stab_loss[t])
                and np.isfinite(emb).all()):
            raise TrainingDivergence(t, "non-finite loss or embedding")
    return StableResult(embeddings=emb, isolated_core=ref, core_nodes=core,
                        base_loss=base_loss, stability_loss=stab_loss,
                        initial=init, config=cfg)
