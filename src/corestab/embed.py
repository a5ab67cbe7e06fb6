"""Embedding engines behind one interface: spectral maps from the random-walk
normalized Laplacian, and first-order edge-sampling SGD with negative sampling.
"""

import logging
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from ._util import json_fields, read_text, sigmoid, write_atomic, write_csv
from .graph import id_fault

log = logging.getLogger(__name__)

LAPLACIAN_EIGENMAPS = "laplacian_eigenmaps"
LINE1 = "line1"
ALGORITHMS = (LAPLACIAN_EIGENMAPS, LINE1)

# eigenvalues this close count as equal: a zero mode to 0, a probe's to the
# smallest found
_EIGVAL_TOL = 1e-8
# largest relative residual and D-orthonormality error accepted from a solve
_EIG_TOL = 1e-6
# graphs this small are solved densely: with one BLAS thread, dense beat
# Lanczos and probes up to 625 nodes and lost from 752 (table in CHANGES.md)
_DENSE_MAX_N = 650
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
    decays linearly to zero across batches.  The seed is not part of the
    spec: each engine call takes it.
    """
    algorithm: str
    dim: int
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
        return cls(**json_fields(cls, d))


def _sign_canonical(vecs):
    # flip each column so its largest-magnitude entry is positive
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _shifted(norm, z, labels, comps, y):
    """N - 3 Z'Z - 3 YY' as a LinearOperator: N = ``norm``, Z's rows the zero
    modes (``z`` on each component in ``labels``), Y = ``y``.  N x goes into
    one buffer per operator (ARPACK copies it out); on a connected graph z
    joins y as a column, so no n-vector is allocated."""
    n = norm.shape[0]
    out, tmp = np.empty(n), np.empty(n)
    basis = np.column_stack([z, y]) if comps == 1 else y

    def matvec(x):
        x = np.ravel(x)
        out.fill(0.0)
        _sparsetools.csr_matvec(n, n, norm.indptr, norm.indices, norm.data,
                                x, out)
        if comps > 1:  # zero.T @ (zero @ x), summed per component
            zx = np.bincount(labels, z * x, comps)[labels]
            np.subtract(out, 3.0 * z * zx, out=out)
        if basis.shape[1]:
            np.subtract(out, np.matmul(basis, 3.0 * (basis.T @ x), out=tmp),
                        out=out)
        return out

    return LinearOperator((n, n), dtype=np.float64, matvec=matvec)


def laplacian_eigenmaps(g, dim, seed=0):
    """Spectral embedding from the random-walk normalized Laplacian.

    L_rw x = lambda x is N y = (1 - lambda) y with N = D^-1/2 A D^-1/2 and
    x = D^-1/2 y.  N has eigenvalue 1 on D^1/2 1_C for each component C;
    with those shifted below N's spectrum, its ``dim`` largest eigenpairs
    give the embedding.  A dense ``eigh`` of just those pairs solves graphs
    of at most ``_DENSE_MAX_N`` nodes, and those where Lanczos cannot, at
    dim + components >= n - 1.  Otherwise Lanczos finds them to tol 1e-10,
    its start and restart vectors drawn from ``seed``; one-pair probes then
    swap in any larger pair it missed (a copy of a repeated eigenvalue).
    Every solve must give zero eigenvalues below 1e-8 per component and a
    relative residual ||Lx - lambda Dx||/||Dx|| and D-orthonormality error
    of at most 1e-6 (logged at DEBUG with the path), and an ARPACK failure
    is an error too: ``EigensolverError``.  Column signs are canonical.
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
    # D^-1/2 A D^-1/2 on adj's own index arrays: entry (i, j) is w s_i s_j
    norm = sp.csr_matrix(
        (weights * np.repeat(inv_sqrt, np.diff(indptr)) * inv_sqrt[nbrs],
         adj.indices, adj.indptr), shape=(n, n))
    # row C of zero is component C's unit zero mode, D^1/2 1_C / sqrt(vol C)
    z = np.sqrt(wdeg / np.bincount(labels, wdeg)[labels])
    zero = sp.csr_matrix((z, (labels, np.arange(n))), shape=(comps, n))
    zero_vals = 1.0 - zero @ (norm @ z)
    if np.max(np.abs(zero_vals)) > _EIGVAL_TOL:
        raise EigensolverError(
            "expected one ~0 eigenvalue per component, got "
            f"{zero_vals!r} for {comps} component(s)")

    probes = 0
    if n > _DENSE_MAX_N and dim + comps < n - 1:
        rng = np.random.default_rng(seed)
        try:
            # tol: every pair is checked to 1e-6 below
            mu, y = eigsh(_shifted(norm, z, labels, comps, np.empty((n, 0))),
                          k=dim, which="LA", tol=1e-10, ncv=2 * dim + 20,
                          v0=rng.standard_normal(n), rng=rng)
            # a probe yields the top pair left once those found are shifted
            # too; above the smallest found it replaces it (tol: rounding in
            # the operator bars machine precision).  Both ncv values exceed
            # ARPACK's default, max(2k + 1, 20), and save about a fifth of
            # the operator products.
            for probes in range(1, dim + 2):
                top, extra = eigsh(_shifted(norm, z, labels, comps, y), k=1,
                                   which="LA", tol=1e-12, ncv=40,
                                   v0=rng.standard_normal(n), rng=rng)
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
        full, zcols = norm.toarray(), zero.T.toarray()
        full -= zcols @ (3.0 * zcols.T)
        mu, y = eigh(full, overwrite_a=True, subset_by_index=[n - dim, n - 1])
    order = np.argsort(-mu)
    vals = 1.0 - mu[order]
    vecs = inv_sqrt[:, None] * y[:, order]
    dvecs = wdeg[:, None] * vecs
    residual = np.max(np.linalg.norm(dvecs - adj @ vecs - dvecs * vals, axis=0)
                      / np.linalg.norm(dvecs, axis=0))
    ortho = max(np.max(np.abs(vecs.T @ dvecs - np.eye(dim))),
                np.max(np.abs(zero @ y)))
    log.debug("eigensolve path=%s n=%d dim=%d components=%d probes=%d "
              "residual=%.3g ortho=%.3g", "lanczos" if probes else "dense",
              n, dim, comps, probes, residual, ortho)
    if not (residual <= _EIG_TOL and ortho <= _EIG_TOL):
        raise EigensolverError(
            f"eigenpairs for dim={dim} on n={n} graph are inaccurate: "
            f"max ||Lv - lambda Dv||/||Dv|| = {residual:.3g}, "
            f"max |V'DV - I| = {ortho:.3g} (tolerance {_EIG_TOL:g})")
    return _sign_canonical(np.ascontiguousarray(vecs))


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


def _line_samplers(g):
    """The alias tables LINE draws from: edges in proportion to weight, and
    noise nodes in proportion to weighted degree to the power 3/4."""
    return AliasTable(g.weights), AliasTable(np.power(g.weighted_degrees, 0.75))


def line_positive_coefficient(u_i, u_j, out=None):
    """Scale s = sigma(u_i . u_j) - 1 of the gradients of
    -log sigma(u_i . u_j): s u_j w.r.t. u_i and s u_i w.r.t. u_j.

    One scale per row of the batch; ``out``, if given, receives it and
    nothing is allocated.
    """
    s = sigmoid(np.einsum("...d,...d->...", u_i, u_j, out=out), out=out)
    return np.subtract(s, 1.0, out=out)


def line_negative_coefficient(u_i, u_negs, mask=None, out=None):
    """Scales s_k = sigma(u_i . u_k) of the gradients of
    -sum_k log sigma(-u_i . u_k): sum_k s_k u_k w.r.t. u_i and s_k u_i
    w.r.t. each u_k.

    ``mask`` (shaped like the result, one entry per noise row) zeroes out
    draws that collided with an endpoint of the positive edge, which would
    otherwise repel the very pair being attracted.  ``out``, if given,
    receives the scales and nothing is allocated.
    """
    s = sigmoid(np.einsum("...d,...kd->...k", u_i, u_negs, out=out), out=out)
    return s if mask is None else np.multiply(s, mask, out=out)


def _column_pointers(counts):
    """CSC column pointers for ``_CHUNK`` items whose columns hold
    ``counts`` entries each, in item-major order; the pointers of the first
    c items are the leading c * len(counts) + 1 entries."""
    ptr = np.zeros(_CHUNK * len(counts) + 1, dtype=np.int32)
    np.cumsum(np.tile(np.asarray(counts, dtype=np.int32), _CHUNK),
              out=ptr[1:])
    return ptr


class _SGDWorkspace:
    """Every per-chunk temporary of the SGD steps of one engine run.

    A step gathers the rows it reads into ``gathered`` (one gather, through
    the index written into ``idx``), writes its coefficient matrix's row ids
    and values into ``rows`` and ``data``, and applies the product in place
    with ``apply_coefficients``.  The line and penalty steps' column
    pointers depend only on their layout, so each is built here once for
    ``_CHUNK`` items and a step of c items uses a prefix: ``line_ptr``
    (2 + ``negatives`` columns per edge) and ``pair_ptr`` (one entry per
    column).  The spectral base's G holds every edge's rows and then every
    anchor, so its pointers depend on c and ``_le_step`` writes them into
    ``le_ptr``.  Allocated per chunk, the temporaries would cost
    mmap/munmap churn and fresh page faults on every chunk, and the loop's
    speed would depend on the allocator's state.  ``rows`` and the pointers
    are int32, the kernel's index type; ``idx`` is intp, so the gather
    copies nothing.  The line step's scales are computed in the contiguous
    ``s_pos`` and ``s_neg`` and then copied into ``data``: numpy buffers a
    ufunc on a strided 2-D view, at 64 KiB per operand.
    """

    def __init__(self, negatives, dim):
        c, k = _CHUNK, negatives
        cols = c * max(2 + k, 4)  # the penalty and spectral steps use 4c
        entries = 2 * c * max(1 + k, 3)  # the spectral step uses 6c
        self.idx = np.empty(cols, dtype=np.intp)
        self.gathered = np.empty((cols, dim))
        self.mask = np.empty((c, k), dtype=bool)
        self.hit = np.empty((c, k), dtype=bool)
        self.s_pos = np.empty(c)
        self.s_neg = np.empty((c, k))
        self.rows = np.empty(entries, dtype=np.int32)
        self.data = np.empty(entries)
        self.line_ptr = _column_pointers([1 + k] + [1] * (1 + k))
        self.pair_ptr = _column_pointers([1, 1])
        self.le_ptr = np.empty(4 * c + 1, dtype=np.int32)


def _gather(emb, idx, out):
    """``emb[idx]`` written into ``out``.

    Every index comes from the engine's own samplers or edge list, so it
    lies in [0, n) and mode="clip" never clips; the default mode="raise"
    would buffer the whole output before copying it into ``out``.
    """
    return np.take(emb, idx, axis=0, out=out, mode="clip")


def apply_coefficients(emb, data, rows, indptr, gathered):
    """``emb += M @ gathered`` in place, for the sparse n x len(gathered)
    matrix M in CSC form: column c adds ``data[p] * gathered[c]`` to row
    ``rows[p]`` for each p in ``indptr[c]:indptr[c + 1]``.

    Every SGD update is a scalar times a row the step gathered, so this is
    the one path by which all steps write.  scipy's compiled CSC kernel (the
    one ``csc_matrix @`` runs) adds each entry's term straight into ``emb``
    in entry order, so repeated rows accumulate one term at a time and the
    cost is O(nnz * dim) whatever n is.  The kernel writes through a flat
    view, so ``emb`` and ``gathered`` must be C-contiguous float64 (a copy
    would silently lose the updates), and ``rows`` and ``indptr`` int32.
    It checks no index, so every entry's row must lie in [0, n) and
    ``indptr`` must not decrease; anything else raises ``ValueError``.
    """
    for name, a in (("emb", emb), ("gathered", gathered), ("data", data)):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous float64 array")
    if rows.dtype != np.int32 or indptr.dtype != np.int32:
        raise ValueError("rows and indptr must be int32")
    if data.ndim != 1 or rows.ndim != 1 or indptr.ndim != 1:
        raise ValueError("data, rows and indptr must be 1-D")
    if len(indptr) - 1 != len(gathered):
        raise ValueError(f"{len(indptr) - 1} columns for "
                         f"{len(gathered)} gathered rows")
    if emb.shape[1:] != gathered.shape[1:]:
        raise ValueError(f"rows of shape {gathered.shape[1:]} cannot update "
                         f"rows of shape {emb.shape[1:]}")
    if (len(rows) != len(data) or indptr[0] != 0
            or indptr[-1] > len(rows) or (indptr[1:] < indptr[:-1]).any()):
        raise ValueError("indptr must rise from 0 to at most the entry "
                         "count, and rows and data must match in length")
    # a negative int32 reads as at least 2**31 unsigned: one pass checks both
    if indptr[-1] and rows[:indptr[-1]].view(np.uint32).max() >= emb.shape[0]:
        raise ValueError(f"a row index lies outside [0, {emb.shape[0]})")
    _sparsetools.csc_matvecs(emb.shape[0], len(gathered),
                             math.prod(emb.shape[1:]), indptr, rows, data,
                             gathered.reshape(-1), emb.reshape(-1))


def _line_step(emb, src, ctx, negs, lr, ws):
    """One SGD step on edges (src, ctx) and noise rows ``negs`` as one
    sparse coefficient product: ``emb += M @ G`` (Hogwild-style, every
    coefficient read from the rows before the step).

    G holds each edge's gathered rows [u_i | u_j | u_negs], 2 + k columns
    per edge.  M, already scaled by -lr, has 2 (1 + k) entries per edge:
    the u_i column gives row ``ctx`` the positive scale and each noise row
    its negative scale, and every other column gives row ``src`` the scale
    of its own term.  Noise draws that hit an edge endpoint get scale 0.
    Every temporary is a slice of the run's workspace ``ws`` (see
    ``_SGDWorkspace``), and the product adds into ``emb`` in place: a warm
    4 096-edge step at dim 10 and 5 negatives allocates about 66 KiB, at
    n = 1 000 and at n = 10**6 alike.
    """
    c, k = negs.shape
    cols, nnz = c * (2 + k), 2 * c * (1 + k)
    idx = ws.idx[:cols].reshape(c, 2 + k)
    idx[:, 0], idx[:, 1], idx[:, 2:] = src, ctx, negs
    g = _gather(emb, idx, ws.gathered[:cols].reshape(c, 2 + k, -1))
    mask = np.not_equal(negs, src[:, None], out=ws.mask[:c])
    mask &= np.not_equal(negs, ctx[:, None], out=ws.hit[:c])
    s_pos = line_positive_coefficient(g[:, 0], g[:, 1], out=ws.s_pos[:c])
    s_neg = line_negative_coefficient(g[:, 0], g[:, 2:], mask,
                                      out=ws.s_neg[:c])
    s_pos *= -lr
    s_neg *= -lr
    # per edge the entries are [ctx | negs] of the u_i column, then src once
    # for each other column; both halves take the scales [s_pos | s_neg]
    data = ws.data[:nnz].reshape(c, 2, 1 + k)
    data[:, :, 0], data[:, :, 1:] = s_pos[:, None], s_neg[:, None]
    rows = ws.rows[:nnz].reshape(c, 2, 1 + k)
    rows[:, 0, 0], rows[:, 0, 1:], rows[:, 1] = ctx, negs, src[:, None]
    apply_coefficients(emb, ws.data[:nnz], ws.rows[:nnz],
                       ws.line_ptr[:cols + 1], ws.gathered[:cols])


def _line_updates(emb, g, edge_sampler, noise, rng, count, negatives, lr,
                  ws):
    """``count`` first-order SGD updates on ``g``, as LINE samples them.

    Draws ``count`` edges from ``edge_sampler`` (the alias table of
    ``g.weights``, so in proportion to weight), then one fair coin per edge
    for which endpoint is the source, then ``negatives`` noise nodes per
    edge from ``noise``, all from ``rng`` in that order, and applies them
    through ``_line_step`` in ``_CHUNK``-edge pieces.
    """
    eidx = edge_sampler.draw(rng, count)
    flip = rng.random(count) < 0.5
    negs = noise.draw(rng, (count, negatives))
    src = np.where(flip, g.edges[eidx, 1], g.edges[eidx, 0])
    ctx = np.where(flip, g.edges[eidx, 0], g.edges[eidx, 1])
    for lo in range(0, count, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        _line_step(emb, src[sl], ctx[sl], negs[sl], lr, ws)


def line1_embed(g, spec, seed=0):
    """First-order proximity embedding by edge-sampling SGD, every draw
    from ``seed``.

    Edges are drawn proportionally to weight (alias method); per positive
    edge, ``spec.negatives`` noise nodes are drawn from the weighted-degree
    distribution raised to 3/4.  Rows start uniform in [-0.5/dim, 0.5/dim].
    Isolated nodes are never sampled and keep their initialization.  One
    batch is ``_line_updates`` of m edges, and one ``_SGDWorkspace`` per call
    holds every per-chunk temporary.
    """
    if spec.algorithm != LINE1:
        raise ValueError(f"spec.algorithm is {spec.algorithm!r}, expected {LINE1!r}")
    if g.m == 0:
        raise ValueError("cannot train on a graph with zero edges")
    rng = np.random.default_rng(seed)
    n, dim = g.n, spec.dim
    emb = (rng.random((n, dim)) - 0.5) / dim
    edge_sampler, noise = _line_samplers(g)
    ws = _SGDWorkspace(spec.negatives, dim)
    for t in range(spec.batches):
        _line_updates(emb, g, edge_sampler, noise, rng, g.m, spec.negatives,
                      spec.lr * (1.0 - t / spec.batches), ws)
    return emb


def line_base_loss(g, emb):
    """Full first-order objective: -sum over edges of w * log sigma(u_i . u_j)."""
    if g.m == 0:
        return 0.0
    dots = np.einsum("ed,ed->e", emb[g.edges[:, 0]], emb[g.edges[:, 1]])
    logp = np.log(np.maximum(sigmoid(dots, out=dots), 1e-300))
    return float(-(g.weights * logp).sum())


def embed_graph(g, spec, seed=0):
    """Run the engine selected by ``spec.algorithm`` with ``seed``."""
    if spec.algorithm == LAPLACIAN_EIGENMAPS:
        return laplacian_eigenmaps(g, spec.dim, seed=seed)
    return line1_embed(g, spec, seed)


def save_embedding_csv(path, emb, orig_ids):
    emb = np.asarray(emb, dtype=np.float64)
    write_csv(path, ["node_id"] + [f"e{k}" for k in range(emb.shape[1])],
              [np.asarray(orig_ids, dtype=np.int64), *emb.T])


def load_embedding_csv(path, orig_ids):
    """The rows of the embedding CSV at ``path`` for the node ids
    ``orig_ids``, in that order; ids follow the edge list's rule.  A
    ValueError names the file, and the line for a row of the wrong length,
    a bad id or cell, or a node id listed a second time."""
    header, *lines = map(str.strip, read_text(path).split("\n"))
    header = header.split(",")
    if header[0] != "node_id":
        raise ValueError(f"{path}: missing node_id header")
    if len(header) < 2:
        raise ValueError(f"{path}: no embedding columns")
    found = {}  # node id -> (the line that listed it, its row)
    for ln, s in enumerate(lines, start=2):
        if not s:
            continue
        parts = s.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{ln}: expected {len(header)} columns")
        if cause := id_fault(parts[0].strip()):
            raise ValueError(f"{path}:{ln}: {cause} in {s!r}")
        try:
            node, row = int(parts[0]), [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if node in found:
            raise ValueError(f"{path}:{ln}: node id {node} repeats line "
                             f"{found[node][0]}")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: non-finite row for node id {node}")
        found[node] = ln, row
    if not found:
        raise ValueError(f"{path}: no embedding rows")
    try:
        rows = [found[int(o)][1] for o in orig_ids]
    except KeyError as exc:
        raise ValueError(f"{path}: missing node id {exc}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, len(header) - 1)


def save_embedding_binary(path, emb):
    emb = np.ascontiguousarray(emb, dtype=np.float64)
    header = EMBEDDING_MAGIC + struct.pack("<QQ", emb.shape[0], emb.shape[1])
    write_atomic(path, [header, emb.tobytes(order="C")])
