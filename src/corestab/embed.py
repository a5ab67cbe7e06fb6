"""Embedding engines behind one interface: spectral maps from the random-walk
normalized Laplacian, and first-order edge-sampling SGD with negative sampling.
"""

import struct
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
from scipy.special import expit

from ._util import write_atomic, write_csv

LAPLACIAN_EIGENMAPS = "laplacian_eigenmaps"
LINE1 = "line1"
ALGORITHMS = (LAPLACIAN_EIGENMAPS, LINE1)

# eigenvalues this close count as equal: a zero mode to 0, a probe's to the
# smallest found
_EIGVAL_TOL = 1e-8
# largest relative residual and D-orthonormality error accepted from a solve
_EIG_TOL = 1e-6
_CHUNK = 4096

EMBEDDING_MAGIC = b"CRSTEMB1"


class EigensolverError(RuntimeError):
    """The eigensolver failed, or its pairs failed the accuracy or
    zero-eigenvalue checks."""


@dataclass
class EmbedSpec:
    """Configuration for one embedding run.

    ``batches``, ``negatives`` and ``lr`` only apply to the SGD engine; one
    batch is one sampling pass over the edge list and the learning rate
    decays linearly to zero across batches.
    """
    algorithm: str
    dim: int
    seed: int = 0
    batches: int = 50
    negatives: int = 5
    lr: float = 0.025

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown embedder config keys: {sorted(extra)}")
        return cls(**d)

    def with_seed(self, seed):
        return replace(self, seed=int(seed))


def _sign_canonical(vecs):
    # flip each column so its largest-magnitude entry is positive
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def laplacian_eigenmaps(g, dim, seed=0, return_eigenvalues=False):
    """Spectral embedding from the random-walk normalized Laplacian.

    L_rw x = lambda x is N y = (1 - lambda) y with N = D^-1/2 A D^-1/2 and
    x = D^-1/2 y.  N has eigenvalue 1 on D^1/2 1_C for each component C;
    with those shifted below N's spectrum, its ``dim`` largest eigenpairs
    give the embedding.  Lanczos finds them with sparse matvecs, its start
    and restart vectors drawn from ``seed``; one-pair probes then swap in
    any larger pair it missed (a copy of a repeated eigenvalue).  A dense
    ``eigh`` of just those pairs runs only where Lanczos cannot, at dim +
    components >= n - 1.  Every solve must give zero eigenvalues below 1e-8
    per component and a relative residual ||Lx - lambda Dx||/||Dx|| and
    D-orthonormality error of at most 1e-6, and an ARPACK failure is an
    error too: ``EigensolverError``.  Column signs are canonical.
    """
    n = g.n
    wdeg = g.weighted_degrees
    if n == 0:
        raise ValueError("cannot embed the empty graph")
    if (wdeg <= 0).any():
        raise ValueError("graph has isolated (zero-degree) nodes")
    indptr, nbrs, weights = g.adjacency()
    adj = sp.csr_matrix((weights, nbrs, indptr), shape=(n, n))
    comps, labels = connected_components(adj, directed=False)
    usable = n - comps
    if dim < 1 or dim > usable:
        raise ValueError(
            f"dim={dim} not in [1, {usable}] (n={n} minus {comps} component(s))")
    inv_sqrt = 1.0 / np.sqrt(wdeg)
    norm = sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)
    # row C of zero is component C's unit zero mode, D^1/2 1_C / sqrt(vol C)
    z = np.sqrt(wdeg / np.bincount(labels, wdeg)[labels])
    zero = sp.csr_matrix((z, (labels, np.arange(n))), shape=(comps, n))
    zero_t = zero.T.tocsr()
    zero_vals = 1.0 - zero @ (norm @ z)
    if np.max(np.abs(zero_vals)) > _EIGVAL_TOL:
        raise EigensolverError(
            "expected one ~0 eigenvalue per component, got "
            f"{zero_vals!r} for {comps} component(s)")

    def shifted(y):  # N with the zero modes and y's columns moved to -2
        return LinearOperator(norm.shape, dtype=np.float64, matvec=lambda x: (
            norm @ x - 3.0 * (zero_t @ (zero @ x) + y @ (y.T @ x))))

    if dim + comps < n - 1:
        rng = np.random.default_rng(seed)
        try:
            mu, y = eigsh(shifted(np.empty((n, 0))), k=dim, which="LA",
                          ncv=2 * dim + 20, v0=rng.standard_normal(n), rng=rng)
            # a probe yields the top pair left once those found are shifted
            # too; above the smallest found it replaces it (tol: rounding in
            # the operator bars machine precision).  Both ncv values exceed
            # ARPACK's default, max(2k + 1, 20), and save about a fifth of
            # the operator products.
            for _ in range(dim + 1):
                top, extra = eigsh(shifted(y), k=1, which="LA", tol=1e-12,
                                   ncv=40, v0=rng.standard_normal(n), rng=rng)
                if top[0] <= mu.min() + _EIGVAL_TOL:
                    break
                keep = np.argsort(mu)[1:]
                mu, y = np.append(mu[keep], top), np.hstack([y[:, keep], extra])
            else:
                raise EigensolverError(f"probes did not settle on n={n} graph")
        except ArpackError as exc:
            raise EigensolverError(
                f"Lanczos failed for dim={dim} on n={n} graph: {exc}") from exc
    else:
        mu, y = eigh(norm.toarray() - 3.0 * (zero_t @ zero).toarray(),
                     subset_by_index=[n - dim, n - 1])
    order = np.argsort(-mu)
    vals = 1.0 - mu[order]
    vecs = inv_sqrt[:, None] * y[:, order]
    dvecs = wdeg[:, None] * vecs
    residual = np.max(np.linalg.norm(dvecs - adj @ vecs - dvecs * vals, axis=0)
                      / np.linalg.norm(dvecs, axis=0))
    ortho = max(np.max(np.abs(vecs.T @ dvecs - np.eye(dim))),
                np.max(np.abs(zero @ y)))
    if not (residual <= _EIG_TOL and ortho <= _EIG_TOL):
        raise EigensolverError(
            f"eigenpairs for dim={dim} on n={n} graph are inaccurate: "
            f"max ||Lv - lambda Dv||/||Dv|| = {residual:.3g}, "
            f"max |V'DV - I| = {ortho:.3g} (tolerance {_EIG_TOL:g})")
    emb = _sign_canonical(np.ascontiguousarray(vecs))
    return (emb, vals) if return_eigenvalues else emb


class AliasTable:
    """O(1) draws from a fixed discrete distribution (alias method)."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if len(w) == 0 or (w < 0).any() or w.sum() <= 0:
            raise ValueError("alias table needs nonnegative weights with positive sum")
        k = len(w)
        prob = w * (k / w.sum())
        alias = np.zeros(k, dtype=np.int64)
        small = [i for i in range(k) if prob[i] < 1.0]
        large = [i for i in range(k) if prob[i] >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            alias[s] = l
            prob[l] = prob[l] - (1.0 - prob[s])
            (small if prob[l] < 1.0 else large).append(l)
        for i in small + large:
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias

    def draw(self, rng, size):
        k = rng.integers(0, len(self.prob), size=size)
        accept = rng.random(size) < self.prob[k]
        return np.where(accept, k, self.alias[k])


def line_positive_gradient(u_i, u_j, out=None):
    """Gradients of -log sigma(u_i . u_j) w.r.t. u_i and u_j (row batches).

    ``out``, if given, is ``(g_i, g_j, s)``: the two gradients, shaped like
    ``u_i``, and the per-row scale s = sigma(u_i . u_j) - 1.  Every result
    is then written there and nothing is allocated.
    """
    g_i, g_j, buf = (None, None, None) if out is None else out
    s = expit(np.einsum("...d,...d->...", u_i, u_j, out=buf), out=buf)
    c = np.subtract(s, 1.0, out=buf)
    return (np.multiply(c[..., None], u_j, out=g_i),
            np.multiply(c[..., None], u_i, out=g_j))


def line_negative_gradient(u_i, u_negs, mask=None, out=None):
    """Gradients of -sum_k log sigma(-u_i . u_k) w.r.t. u_i and each u_k.

    ``mask`` (same leading shape as the negative axis) zeroes out draws that
    collided with an endpoint of the positive edge, which would otherwise
    repel the very pair being attracted.  ``out``, if given, is
    ``(g_i, g_negs, s)``: the gradients, shaped like ``u_i`` and ``u_negs``,
    and the per-draw scale s = sigma(u_i . u_k), shaped like ``mask``.
    """
    g_i, g_negs, buf = (None, None, None) if out is None else out
    s = expit(np.einsum("...d,...kd->...k", u_i, u_negs, out=buf), out=buf)
    if mask is not None:
        s = np.multiply(s, mask, out=buf)
    g_i = np.einsum("...k,...kd->...d", s, u_negs, out=g_i)
    g_negs = np.multiply(s[..., None], u_i[..., None, :], out=g_negs)
    return g_i, g_negs


class _SGDWorkspace:
    """Every per-chunk temporary of the SGD steps of one engine run.

    Sized for ``_CHUNK`` edges with ``negatives`` noise rows each, in
    ``dim`` dimensions; a step uses the leading rows of each buffer.  One
    chunk's temporaries come to about 6 MiB at 5 negatives and dim 10,
    mostly in blocks above glibc's 128 KiB mmap threshold.  Allocated per
    chunk, they would cost mmap/munmap churn and fresh page faults on every
    chunk, and the loop's speed would depend on the allocator's state.
    ``rows`` and ``indptr`` are int32, scipy's index type, so building the
    one-hot copies nothing.
    """

    def __init__(self, negatives, dim):
        c, size = _CHUNK, _CHUNK * (2 + negatives)
        self.u_i = np.empty((c, dim))
        self.u_j = np.empty((c, dim))
        self.u_negs = np.empty((c, negatives, dim))
        self.g_i_neg = np.empty((c, dim))
        self.s_pos = np.empty(c)
        self.s_neg = np.empty((c, negatives))
        self.mask = np.empty((c, negatives), dtype=bool)
        self.hit = np.empty((c, negatives), dtype=bool)
        # one entry per scatter row, laid out [src | ctx | negs]
        self.rows = np.empty(size, dtype=np.int32)
        self.updates = np.empty((size, dim))
        self.ones = np.ones(size)
        self.indptr = np.arange(size + 1, dtype=np.int32)


def _gather(emb, idx, out):
    """``emb[idx]`` written into ``out``.

    Every index comes from the engine's own samplers or edge list, so it
    lies in [0, n) and mode="clip" never clips; the default mode="raise"
    would buffer the whole output before copying it into ``out``.
    """
    return np.take(emb, idx, axis=0, out=out, mode="clip")


def scatter_add(emb, rows, updates, ws):
    """``emb[rows] += updates`` with repeated rows accumulated, as one sparse
    one-hot product; each row's updates are summed before the add.

    The one-hot's data and column pointers are the leading entries of
    ``ws.ones`` and ``ws.indptr``; int32 ``rows`` are used without a copy.
    """
    k = len(rows)
    onehot = sp.csc_matrix((ws.ones[:k], rows, ws.indptr[:k + 1]),
                           shape=(emb.shape[0], k))
    emb += onehot @ updates


def _line_step(emb, src, ctx, negs, lr, ws):
    """One SGD step on edges (src, ctx) and noise rows ``negs``: every
    gradient reads the rows before the step (Hogwild-style), one scatter
    applies them, and noise draws that hit an edge endpoint are masked.

    Every temporary is a slice of the run's workspace ``ws``: the gathered
    rows, the dots and sigmoids, the mask, and the scatter's rows and update
    matrix, into which the gradients are written in place (see
    ``_SGDWorkspace`` for why).  A warm 4 096-edge step at n = 1 000, dim 10
    and 5 negatives allocates about 130 KiB, mostly the one-hot product's
    n x dim result.  Rows are gathered by ``_gather``, whose mode="clip" is
    safe because every index is a node id.
    """
    c, k = negs.shape
    end = c * (2 + k)
    rows, upd = ws.rows[:end], ws.updates[:end]
    mask = np.not_equal(negs, src[:, None], out=ws.mask[:c])
    mask &= np.not_equal(negs, ctx[:, None], out=ws.hit[:c])
    u_i = _gather(emb, src, ws.u_i[:c])
    g_i = upd[:c]
    line_positive_gradient(u_i, _gather(emb, ctx, ws.u_j[:c]),
                           out=(g_i, upd[c:2 * c], ws.s_pos[:c]))
    g_i_neg, _ = line_negative_gradient(
        u_i, _gather(emb, negs, ws.u_negs[:c]), mask,
        out=(ws.g_i_neg[:c], upd[2 * c:].reshape(c, k, -1), ws.s_neg[:c]))
    g_i += g_i_neg
    upd *= -lr
    rows[:c], rows[c:2 * c], rows[2 * c:] = src, ctx, negs.reshape(-1)
    scatter_add(emb, rows, upd, ws)


def line1_embed(g, spec):
    """First-order proximity embedding by edge-sampling SGD.

    Edges are drawn proportionally to weight (alias method); per positive
    edge, ``spec.negatives`` noise nodes are drawn from the weighted-degree
    distribution raised to 3/4.  Rows start uniform in [-0.5/dim, 0.5/dim].
    Isolated nodes are never sampled and keep their initialization.  One
    ``_SGDWorkspace`` per call holds every per-chunk temporary.
    """
    if spec.algorithm != LINE1:
        raise ValueError(f"spec.algorithm is {spec.algorithm!r}, expected {LINE1!r}")
    if g.m == 0:
        raise ValueError("cannot train on a graph with zero edges")
    rng = np.random.default_rng(spec.seed)
    n, dim = g.n, spec.dim
    emb = (rng.random((n, dim)) - 0.5) / dim
    edge_sampler = AliasTable(g.weights)
    noise = AliasTable(np.power(g.weighted_degrees, 0.75))
    m = g.m
    ws = _SGDWorkspace(spec.negatives, dim)
    for t in range(spec.batches):
        lr_t = spec.lr * (1.0 - t / spec.batches)
        eidx = edge_sampler.draw(rng, m)
        flip = rng.random(m) < 0.5
        negs = noise.draw(rng, (m, spec.negatives))
        src = np.where(flip, g.edges[eidx, 1], g.edges[eidx, 0])
        ctx = np.where(flip, g.edges[eidx, 0], g.edges[eidx, 1])
        for lo in range(0, m, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            _line_step(emb, src[sl], ctx[sl], negs[sl], lr_t, ws)
    return emb


def line_base_loss(g, emb):
    """Full first-order objective: -sum over edges of w * log sigma(u_i . u_j)."""
    if g.m == 0:
        return 0.0
    dots = np.einsum("ed,ed->e", emb[g.edges[:, 0]], emb[g.edges[:, 1]])
    logp = np.log(np.maximum(expit(dots), 1e-300))
    return float(-(g.weights * logp).sum())


def embed_graph(g, spec):
    """Run the engine selected by ``spec.algorithm``."""
    if spec.algorithm == LAPLACIAN_EIGENMAPS:
        return laplacian_eigenmaps(g, spec.dim, seed=spec.seed)
    return line1_embed(g, spec)


def save_embedding_csv(path, emb, orig_ids):
    emb = np.asarray(emb, dtype=np.float64)
    write_csv(path, ["node_id"] + [f"e{k}" for k in range(emb.shape[1])],
              [np.asarray(orig_ids, dtype=np.int64), *emb.T])


def load_embedding_csv(path):
    ids = []
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "node_id":
            raise ValueError(f"{path}: missing node_id header")
        dim = len(header) - 1
        for ln, line in enumerate(fh, start=2):
            s = line.strip()
            if not s:
                continue
            parts = s.split(",")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{ln}: expected {dim + 1} columns")
            ids.append(int(parts[0]))
            rows.append([float(x) for x in parts[1:]])
    return np.array(ids, dtype=np.int64), np.array(rows, dtype=np.float64)


def save_embedding_binary(path, emb):
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    header = EMBEDDING_MAGIC + struct.pack("<QQ", emb.shape[0], emb.shape[1])
    write_atomic(path, [header, emb.tobytes(order="C")])


def load_embedding_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != EMBEDDING_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        n, dim = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(), dtype=np.float64)
    if data.size != n * dim:
        raise ValueError(f"{path}: truncated payload")
    return data.reshape(n, dim).copy()
