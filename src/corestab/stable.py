"""Core-stable embedding training.

Train a base embedding objective plus a penalty that pins the first-order
proximities among degenerate-core nodes to those of the core embedded in
isolation.  Each batch samples uniformly from the two sums the objective is
made of: a draw from the base sum takes a base update, and an unordered pair
of core nodes takes the penalty update.  A base draw picks an edge in
proportion to weight for the line1 base, through the same sampler as
``line1``, and uniformly among the positive-weight edges, with
weight-scaled coefficients, for the spectral base.  Core pairs are drawn
directly, never materialized.
"""

import logging
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ._util import derive_seed, json_fields, sigmoid
from .embed import (_CHUNK, LAPLACIAN_EIGENMAPS, LINE1, EmbedSpec, _gather,
                    _line_samplers, _line_updates, _SGDWorkspace,
                    apply_coefficients, embed_graph, line_base_loss)
from .graph import core_decomposition

log = logging.getLogger(__name__)

_GAP_BLOCK = 512  # core rows per block of proximity gaps

# a final penalty above this per core pair (an RMS proximity gap above 0.2)
# marks a saturated run: its sigmoids sit where the gradient vanishes
_SATURATED = 0.04


class TrainingDivergence(RuntimeError):
    """A loss or the embedding matrix went non-finite."""

    def __init__(self, batch, message):
        super().__init__(f"diverged at batch {batch}: {message}")
        self.batch = batch


@dataclass
class StableConfig:
    """Hyperparameters for a stabilized training run.

    ``alpha`` scales the stability penalty, and defaults to the base's
    ``DEFAULT_ALPHA``; ``gamma`` and ``beta`` balance the spectral base's
    edge-attraction and anchor terms and are ignored by the SGD base.  The
    ``EmbedSpec`` ``spec``, built from the other fields, checks them and
    embeds the isolated core.  Gradient expressions drop constant factors
    of 2, which are absorbed into ``lr`` and ``alpha``.  The seed is not
    part of the config: ``stable_train`` takes it.
    """
    base: str
    dim: int = 10
    alpha: Optional[float] = None
    gamma: float = 0.1
    beta: float = 0.1
    lr: float = 0.025
    batches: int = 200
    negatives: int = 5

    # paper-reported operating points per base algorithm
    DEFAULT_ALPHA = {LINE1: 10.0, LAPLACIAN_EIGENMAPS: 1e5}

    def __post_init__(self):
        if self.base not in (LINE1, LAPLACIAN_EIGENMAPS):
            raise ValueError(f"unknown base {self.base!r}")
        self.spec = EmbedSpec(self.base, self.dim, self.batches,
                              self.negatives, self.lr)
        if self.alpha is None:
            self.alpha = self.DEFAULT_ALPHA[self.base]
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.base == LAPLACIAN_EIGENMAPS:
            if self.gamma <= 0:
                raise ValueError("gamma must be positive for the spectral base")
            if self.beta < 0:
                raise ValueError("beta must be >= 0")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**json_fields(cls, d))


@dataclass
class StableResult:
    embeddings: np.ndarray        # trained matrix, one row per node
    isolated_core: np.ndarray     # reference embedding of the core alone
    core_nodes: np.ndarray        # dense ids of the degenerate core
    base_loss: np.ndarray         # per-batch base objective
    stability_loss: np.ndarray    # per-batch penalty value
    initial: np.ndarray           # embedding before stabilized training


def isolated_core_embedding(g, cm, spec, seed=0):
    """Embed the induced subgraph on the degenerate core with the base
    engine and ``seed``.

    Rows follow core-local ids; the mapping back is ``cm.degenerate_core``
    (sorted dense ids).
    """
    core = cm.degenerate_core
    if len(core) < 2:
        raise ValueError("degenerate core has fewer than 2 nodes")
    return embed_graph(g.induced_subgraph(core), spec, seed)


def stability_coefficient(u_i, u_j, s_hat):
    """Penalty gradient scale s (1 - s) (s - s_hat), s = sigma(u_i.u_j)."""
    s = sigmoid(np.einsum("...d,...d->...", u_i, u_j))
    return s * (1.0 - s) * (s - s_hat)


def le_base_coefficients(w_ij, gamma, beta):
    """Coefficients of u_i, u_j and u_i0 in the spectral-base gradient for
    u_i: gamma w + beta, -gamma w and -beta."""
    gw = gamma * np.asarray(w_ij, dtype=np.float64)
    return gw + beta, -gw, -beta


def _penalty_step(emb, ref, core, pos_i, pos_j, scale, ws):
    """One stability step on the core pairs at positions (pos_i, pos_j):
    ``emb += M @ G`` with G the gathered rows [u_j block | u_i block] and M
    giving column u_j row i and column u_i row j, both with the pair's
    coefficient -scale s (1 - s) (s - s_hat).  The reference rows that
    give s_hat are gathered into the workspace just past G."""
    c = len(pos_i)
    ids = ws.idx[:2 * c].reshape(2, c)
    np.take(core, pos_j, out=ids[0], mode="clip")
    np.take(core, pos_i, out=ids[1], mode="clip")
    g = _gather(emb, ids, ws.gathered[:2 * c].reshape(2, c, -1))
    r = ws.gathered[2 * c:4 * c].reshape(2, c, -1)
    s_hat = sigmoid(np.einsum("...d,...d->...", _gather(ref, pos_i, r[0]),
                              _gather(ref, pos_j, r[1])))
    data = ws.data[:2 * c].reshape(2, c)
    data[0] = stability_coefficient(g[1], g[0], s_hat)
    data[0] *= -scale
    data[1] = data[0]
    rows = ws.rows[:2 * c].reshape(2, c)
    rows[0], rows[1] = ids[1], ids[0]
    apply_coefficients(emb, ws.data[:2 * c], ws.rows[:2 * c],
                       ws.pair_ptr[:2 * c + 1], ws.gathered[:2 * c])


def _le_step(emb, init, pairs, w, lr, gamma, beta, ws):
    """One spectral-base step on the edges ``pairs`` (c x 2) of weights
    ``w``: ``emb += M @ G`` with G the gathered rows [u_i, u_j of every
    edge | u_i0, u_j0 of every edge], one contiguous gather each, and M,
    scaled by -lr, holding the ``le_base_coefficients`` of both endpoints'
    gradients.  The pointers depend on c, so they are written per step."""
    c = len(pairs)
    g = ws.gathered[:4 * c].reshape(2, c, 2, -1)
    _gather(emb, pairs, g[0])
    _gather(init, pairs, g[1])
    a, b, anchor = le_base_coefficients(w, gamma, beta)
    # columns u_i and u_j of each edge give rows (i, j) the coefficients
    # (a, b) and (b, a); then each anchor column gives its own row `anchor`
    data = ws.data[:6 * c]
    coef = data[:4 * c].reshape(c, 4)
    coef[:, 0], coef[:, 1], coef[:, 2], coef[:, 3] = a, b, b, a
    data[4 * c:] = anchor
    data *= -lr
    rows = ws.rows[:6 * c]
    rows[:4 * c].reshape(c, 2, 2)[:] = pairs[:, None]
    rows[4 * c:].reshape(c, 2)[:] = pairs
    ptr = ws.le_ptr[:4 * c + 1]
    np.multiply(ws.pair_ptr[:2 * c + 1], 2, out=ptr[:2 * c + 1])
    np.add(ws.pair_ptr[1:2 * c + 1], 4 * c, out=ptr[2 * c + 1:])
    apply_coefficients(emb, data, rows, ptr, ws.gathered[:4 * c])


def _gap_blocks(core_emb, core_ref):
    """Squared first-order proximity gaps of the core pairs (r, c), c > r,
    one block of core rows at a time, in upper-triangular row order.

    A block's sigmoids and gaps cover only the columns from its first row
    on.  Its dot products stay full width: BLAS rounds a narrower product
    differently in some tail columns (syrk for the square last block, other
    kernels for small ones), and the gaps would then not be bit-identical
    across block layouts.
    """
    core_emb = np.asarray(core_emb, dtype=np.float64)
    core_ref = np.asarray(core_ref, dtype=np.float64)
    k = core_emb.shape[0]
    for lo in range(0, k, _GAP_BLOCK):
        hi = min(k, lo + _GAP_BLOCK)
        with np.errstate(over="ignore"):
            p = (core_emb[lo:hi] @ core_emb.T)[:, lo:]
            p_ref = (core_ref[lo:hi] @ core_ref.T)[:, lo:]
        sigmoid(p, out=p)
        p -= sigmoid(p_ref, out=p_ref)
        p *= p
        # row-major boolean indexing keeps the pairs (r, c), c > r, in order
        yield p[np.arange(hi - lo)[:, None] < np.arange(k - lo)]


def _core_gap_blocks(emb, isolated_core, core):
    """``_gap_blocks`` of the rows ``core`` of ``emb`` against the
    reference ``isolated_core``, once the core ids are checked to be rows of
    ``emb`` and as many as the reference rows."""
    core = np.asarray(core, dtype=np.int64)
    if np.shape(isolated_core)[0] != len(core):
        raise ValueError("isolated-core rows do not match the core mapping")
    if len(core) and (core.min() < 0 or core.max() >= np.shape(emb)[0]):
        raise ValueError("core ids outside embedding rows")
    return _gap_blocks(np.asarray(emb)[core], isolated_core)


def instability_penalty(emb, isolated_core, core):
    """Sum of squared proximity gaps over all unordered core pairs, summed
    block by block without holding every gap."""
    blocks = _core_gap_blocks(emb, isolated_core, core)
    return float(sum(seg.sum() for seg in blocks))


def _le_base_loss(g, emb, init, gamma, beta):
    # overflow to inf is acceptable: it trips the divergence guard
    with np.errstate(over="ignore"):
        diffs = emb[g.edges[:, 0]] - emb[g.edges[:, 1]]
        edge_term = float((g.weights * np.einsum("ed,ed->e", diffs, diffs)).sum())
        return gamma * edge_term + beta * float(((emb - init) ** 2).sum())


def stable_train(g, cfg, seed=0):
    """Stabilized SGD: base steps on edges, penalty steps on core pairs.
    Every random stream derives from ``seed``.

    Follows the generic recipe: embed the isolated core and the full graph
    with the base engine, then run ``cfg.batches`` sampling passes.  A batch
    is m + k(k-1)/2 uniform draws over the two sums of the objective, made
    one chunk at a time.  A draw below m takes a base step: for the line1
    base, a chunk's c such draws are ``_line_updates`` of c edges drawn in
    proportion to weight, as in ``line1_embed``; for the spectral base, the
    draw is that edge of ``g``, whose weight-scaled step runs when its
    weight is positive.  Any other draw is a uniform unordered pair of the
    k core nodes and takes a stability step scaled by ``lr * alpha``.  So
    the base sum gets m updates and each core pair one penalty update per
    batch in expectation.  The learning rate decays linearly to zero.  One ``_SGDWorkspace`` per
    run holds the chunk temporaries of the base and penalty steps, and every
    step applies its updates as one sparse coefficient product
    (``apply_coefficients``).  When alpha > 0 and the final penalty exceeds
    ``_SATURATED`` per core pair, one WARNING gives the value: such a run
    still returns, but its core proximities were not pinned.
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
    init_spec = EmbedSpec(cfg.base, cfg.dim, max(1, cfg.batches // 5),
                          cfg.negatives, cfg.lr)
    ref = isolated_core_embedding(g, cm, cfg.spec,
                                  derive_seed(seed, "isolated-core"))
    emb = np.array(embed_graph(g, init_spec, derive_seed(seed, "full-init")))
    init = emb.copy()

    edges, weights, m, k = g.edges, g.weights, g.m, len(core)
    draws = m + k * (k - 1) // 2
    is_line = cfg.base == LINE1
    if is_line:
        edge_sampler, noise = _line_samplers(g)
    rng_draws = np.random.default_rng(derive_seed(seed, "edge-stream"))
    rng_negs = np.random.default_rng(derive_seed(seed, "noise-stream"))
    ws = _SGDWorkspace(cfg.negatives, cfg.dim)

    base_loss = np.empty(cfg.batches)
    stab_loss = np.empty(cfg.batches)
    for t in range(cfg.batches):
        lr_t = cfg.lr * (1.0 - t / cfg.batches)
        for lo in range(0, draws, _CHUNK):
            idx = rng_draws.integers(0, draws, size=min(_CHUNK, draws - lo))
            drawn = idx[idx < m]
            if is_line:
                _line_updates(emb, g, edge_sampler, noise, rng_negs,
                              len(drawn), cfg.negatives, lr_t, ws)
            else:
                e = drawn[weights[drawn] > 0]
                if e.size:
                    _le_step(emb, init, edges[e], weights[e], lr_t,
                             cfg.gamma, cfg.beta, ws)
            # the penalty reads the rows the base step above just wrote
            c = len(idx) - len(drawn)
            if cfg.alpha > 0 and c:
                # (r, r + offset) mod k is a uniform ordered pair of distinct
                # core positions: each unordered pair has chance 1/(k choose 2)
                pos_i = rng_draws.integers(0, k, size=c)
                pos_j = (pos_i + rng_draws.integers(1, k, size=c)) % k
                _penalty_step(emb, ref, core, pos_i, pos_j,
                              lr_t * cfg.alpha, ws)
        if is_line:
            base_loss[t] = line_base_loss(g, emb)
        else:
            base_loss[t] = _le_base_loss(g, emb, init, cfg.gamma, cfg.beta)
        stab_loss[t] = instability_penalty(emb, ref, core)
        if not (np.isfinite(base_loss[t]) and np.isfinite(stab_loss[t])
                and np.isfinite(emb).all()):
            raise TrainingDivergence(t, "non-finite loss or embedding")
    per_pair = stab_loss[-1] / (k * (k - 1) // 2)
    if cfg.alpha > 0 and per_pair > _SATURATED:
        log.warning("training saturated: the final penalty is %.3g per core "
                    "pair (RMS proximity gap %.3g, above %.2g)", per_pair,
                    np.sqrt(per_pair), np.sqrt(_SATURATED))
    return StableResult(embeddings=emb, isolated_core=ref, core_nodes=core,
                        base_loss=base_loss, stability_loss=stab_loss,
                        initial=init)
