import json
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

import corestab.embed as embed_mod
import corestab.stable as stable_mod
from corestab.embed import line_negative_coefficient, line_positive_coefficient
from corestab.graph import Graph, SubgraphFeatures
from corestab.stable import le_base_coefficients, stability_coefficient
from corestab.synth import GenSpec, generate

# Zachary karate club, 34 nodes, 78 edges (1-indexed as usually published)
KARATE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
    (1, 12), (1, 13), (1, 14), (1, 18), (1, 20), (1, 22), (1, 32),
    (2, 3), (2, 4), (2, 8), (2, 14), (2, 18), (2, 20), (2, 22), (2, 31),
    (3, 4), (3, 8), (3, 9), (3, 10), (3, 14), (3, 28), (3, 29), (3, 33),
    (4, 8), (4, 13), (4, 14),
    (5, 7), (5, 11),
    (6, 7), (6, 11), (6, 17),
    (7, 17),
    (9, 31), (9, 33), (9, 34),
    (10, 34),
    (14, 34),
    (15, 33), (15, 34),
    (16, 33), (16, 34),
    (19, 33), (19, 34),
    (20, 34),
    (21, 33), (21, 34),
    (23, 33), (23, 34),
    (24, 26), (24, 28), (24, 30), (24, 33), (24, 34),
    (25, 26), (25, 28), (25, 32),
    (26, 32),
    (27, 30), (27, 34),
    (28, 34),
    (29, 32), (29, 34),
    (30, 33), (30, 34),
    (31, 33), (31, 34),
    (32, 33), (32, 34),
    (33, 34),
]


@pytest.fixture(scope="session")
def karate():
    edges = np.array(KARATE_EDGES, dtype=np.int64) - 1
    return Graph(34, edges)


@pytest.fixture(scope="session")
def karate_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "karate.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in KARATE_EDGES))
    return str(path)


@pytest.fixture
def triangle():
    return Graph(3, [[0, 1], [1, 2], [0, 2]])


def complete_graph(n):
    i, j = np.triu_indices(n, 1)
    return Graph(n, np.column_stack([i, j]))


def desk_graph():
    """Small fixture: two 5-cliques joined by a bridge, plus four pendants.

    The pendant periphery keeps the degenerate core (the ten clique nodes)
    strictly smaller than the graph, so the isolated-core embedding differs
    from the full-graph one and stability runs have something to improve.
    """
    edges = [(i, j) for base in (0, 5) for i in range(base, base + 5)
             for j in range(i + 1, base + 5)]
    edges.append((0, 5))                      # bridge
    edges += [(1, 10), (2, 11), (6, 12), (7, 13)]  # pendants
    return Graph(14, np.array(edges, dtype=np.int64))


def ba_with_pendants(n_core, m_attach, pendants, seed):
    """BA(n_core, m_attach) plus ``pendants`` degree-1 nodes, each attached
    to a BA node drawn by ``np.random.default_rng(seed)``; the BA graph is
    the degenerate core and the pendants are a periphery to shave."""
    g = generate(GenSpec("ba", n_core, m_attach=m_attach), seed=seed)
    anchors = np.random.default_rng(seed).integers(0, n_core, size=pendants)
    leaves = np.column_stack([anchors, np.arange(n_core, n_core + pendants)])
    return Graph(n_core + pendants, np.vstack([g.edges, leaves]))


def read_text(*path):
    """The text of the file at ``os.path.join(*path)``, closed once read."""
    with open(os.path.join(*path)) as fh:
        return fh.read()


def read_json(*path):
    """The JSON document in the file at ``os.path.join(*path)``."""
    return json.loads(read_text(*path))


def write_csv_oracle(path, header, columns):
    """The cell-by-cell writer ``write_csv`` must match byte for byte: a
    header line, then each row's cells by ``str``, joined by commas."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    text = ",".join(header) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in zip(*cols))
    with open(path, "wb") as fh:
        fh.write(text.encode())


def neighbors(g, v):
    """Sorted neighbour ids of node ``v``."""
    indptr, nbrs, _ = g.adjacency()
    return nbrs[indptr[v]:indptr[v + 1]]


def component_count(g):
    """Number of connected components; isolated nodes count as one each."""
    adj = sp.csr_matrix((np.ones(g.m), g.edges.T), shape=(g.n, g.n))
    return int(connected_components(adj, directed=False)[0])


def naive_coreness(g):
    """Fixpoint-deletion oracle: for each k, repeatedly delete nodes of
    degree < k until none remain; coreness is the largest k a node survives."""
    core = np.zeros(g.n, dtype=np.int64)
    adj = [set(neighbors(g, v).tolist()) for v in range(g.n)]
    for k in range(1, g.n + 1):
        alive = set(range(g.n))
        nbrs = [set(s) for s in adj]
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                if len(nbrs[v]) < k:
                    alive.discard(v)
                    for u in nbrs[v]:
                        nbrs[u].discard(v)
                    nbrs[v] = set()
                    changed = True
        if not alive:
            break
        for v in alive:
            core[v] = k
    return core


def edge_list_oracle(path):
    """Line-by-line reading of a valid edge list: (sorted original ids,
    {(lo, hi): last weight}), self-loops and their only-loop nodes left out."""
    edges, nodes = {}, set()
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            u, v = int(parts[0]), int(parts[1])
            if u != v:
                nodes.update((u, v))
                edges[(min(u, v), max(u, v))] = \
                    float(parts[2]) if len(parts) == 3 else 1.0
    return sorted(nodes), edges


def edge_loop_features(g):
    """Per-edge set-intersection oracle for ``subgraph_features``.

    Counts the triangles on each edge by intersecting its ends' neighbour
    sets; a node's triangles are half the sum over its edges.
    """
    n, m = g.n, g.m
    density = 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0
    if n == 0 or m == 0:
        return SubgraphFeatures(n, density, 0.0, 0.0)
    nbr_sets = [set(neighbors(g, v).tolist()) for v in range(n)]
    tri_edge = np.zeros(m, dtype=np.int64)
    for e in range(m):
        sa, sb = nbr_sets[int(g.edges[e, 0])], nbr_sets[int(g.edges[e, 1])]
        if len(sa) > len(sb):
            sa, sb = sb, sa
        tri_edge[e] = sum(1 for x in sa if x in sb)
    tri_node2 = np.bincount(g.edges.T.ravel(), np.tile(tri_edge, 2),
                            minlength=n)
    deg = g.degrees
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(deg >= 2, tri_node2 / (deg * (deg - 1.0)), 0.0)
    triples = float(np.sum(deg * (deg - 1) // 2))
    transitivity = float(tri_edge.sum() / triples) if triples > 0 else 0.0
    return SubgraphFeatures(n, float(density), float(local.mean()), transitivity)


def kcore_features_oracle(g, cm, k):
    """``edge_loop_features`` of the k-core, built as an induced subgraph."""
    return edge_loop_features(g.induced_subgraph(np.flatnonzero(
        cm.coreness >= k)))


def emd_lp(a, b):
    """Optimal-transport LP between two small empirical distributions."""
    from scipy.optimize import linprog

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    cost = np.abs(a[:, None] - b[None, :]).ravel()
    a_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros(na * nb)
        row[i * nb:(i + 1) * nb] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / na)
    for j in range(nb):
        row = np.zeros(na * nb)
        row[j::nb] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / nb)
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def random_er(rng, n, p):
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < p
    return Graph(n, np.column_stack([i[keep], j[keep]]))


def line_gradients(u_i, u_j, negatives):
    """Per-edge gradient triple (du_i, du_j, du_negs) of the sampled objective.

    Built from the two coefficient functions the SGD step calls; the
    objective for one drawn edge is -log sigma(u_i . u_j) - sum_k log
    sigma(-u_i . u_k), whose gradients are s u_j + sum_k s_k u_k w.r.t.
    u_i, s u_i w.r.t. u_j and s_k u_i w.r.t. u_k.
    """
    u_i = np.asarray(u_i, dtype=np.float64)
    u_j = np.asarray(u_j, dtype=np.float64)
    negs = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if u_i.shape != u_j.shape or negs.shape[-1] != u_i.shape[-1]:
        raise ValueError("dimension mismatch")
    s = np.asarray(line_positive_coefficient(u_i, u_j))[..., None]
    s_neg = line_negative_coefficient(u_i, negs)
    return (s * u_j + np.einsum("...k,...kd->...d", s_neg, negs), s * u_i,
            s_neg[..., None] * u_i[..., None, :])


def stability_gradient(u_i, u_j, h_i, h_j):
    """Penalty gradient for u_i, constants dropped, from the coefficient the
    penalty step runs: s (1 - s) (s - s_hat) u_j with s = sigma(u_i . u_j)
    and s_hat = sigma(h_i . h_j) from the reference rows."""
    s_hat = expit(np.einsum("...d,...d->...", h_i, h_j))
    return stability_coefficient(u_i, u_j, s_hat)[..., None] * u_j


def le_base_gradient(u_i, u_j, u_i0, w_ij, gamma, beta):
    """Spectral-base gradient for u_i, constants dropped, from the
    coefficients the spectral-base step runs: gamma w (u_i - u_j) +
    beta (u_i - u_i0), with u_i0 the row's spectral initialization."""
    a, b, c = le_base_coefficients(w_ij, gamma, beta)
    return a[..., None] * u_i + b[..., None] * u_j + c * u_i0


def spy_training_line_steps(monkeypatch, record):
    """Call ``record(src, ctx)`` before each ``_line_step`` of the SGD pass
    of ``stable_train``; the steps of its reference and init embeddings,
    made through ``corestab.stable.embed_graph``, are not recorded."""
    real_step, real_embed = embed_mod._line_step, stable_mod.embed_graph
    embedding = [False]

    def embed_spy(g, spec, seed):
        embedding[0] = True
        try:
            return real_embed(g, spec, seed)
        finally:
            embedding[0] = False

    def step_spy(emb, src, ctx, negs, lr, ws):
        if not embedding[0]:
            record(src, ctx)
        return real_step(emb, src, ctx, negs, lr, ws)

    monkeypatch.setattr(stable_mod, "embed_graph", embed_spy)
    monkeypatch.setattr(embed_mod, "_line_step", step_spy)


def rayleigh_eigenvalues(g, emb):
    """Eigenvalues of the D-orthonormal columns of a spectral embedding as
    Rayleigh quotients, lambda = v'(D - A)v = 1 - v'Av."""
    adj = sp.csr_matrix((g.weights, g.edges.T), shape=(g.n, g.n))
    return 1.0 - np.einsum("nd,nd->d", emb, (adj + adj.T) @ emb)


def add_at_oracle(n, rows, updates):
    """``np.add.at`` of ``updates`` at ``rows`` into zeros with n rows."""
    updates = np.asarray(updates)
    out = np.zeros((n,) + updates.shape[1:], dtype=updates.dtype)
    np.add.at(out, rows, updates)
    return out


def line_step_oracle(emb, src, ctx, negs, lr):
    """The LINE SGD step written with fresh arrays for every temporary.

    The same operations in the same order as ``_line_step``: one gather of
    each edge's rows [u_i | u_j | u_negs], the coefficients [s_pos | s_neg]
    on those pre-step rows with noise draws that hit an endpoint masked,
    and the coefficient matrix M applied in place, one entry at a time in
    CSC entry order.  Per edge, M's u_i column gives row ctx and the noise
    rows their coefficients, and every other column gives row src its own.
    """
    dim = emb.shape[1]
    c, k = negs.shape
    mask = (negs != src[:, None]) & (negs != ctx[:, None])
    g = emb[np.column_stack([src, ctx, negs])]
    s_pos = expit(np.einsum("...d,...d->...", g[:, 0], g[:, 1])) - 1.0
    s_neg = expit(np.einsum("...d,...kd->...k", g[:, 0], g[:, 2:])) * mask
    data = np.tile(np.column_stack([-lr * s_pos, -lr * s_neg]), 2)
    rows = np.column_stack([ctx, negs, np.repeat(src[:, None], 1 + k, 1)])
    col = np.repeat(np.arange(c * (2 + k)),
                    np.tile([1 + k] + [1] * (1 + k), c))
    np.add.at(emb, rows.ravel(),
              data.ravel()[:, None] * g.reshape(-1, dim)[col])


def sigmoid_proximity(u, v):
    """sigma(u . v); saturates instead of overflowing for huge dot products."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(expit(u @ v))


def rw_normalized_laplacian(g):
    """Dense random-walk normalized Laplacian D^-1 (D - A); rows sum to 0.

    Degrees are weighted.  Intended for analysis and verification on small
    graphs; the spectral embedder uses sparse matrices internally.
    """
    wdeg = g.weighted_degrees
    if g.n and (wdeg <= 0).any():
        raise ValueError("graph has isolated (zero-degree) nodes")
    a = np.zeros((g.n, g.n))
    if g.m:
        a[g.edges[:, 0], g.edges[:, 1]] = g.weights
        a[g.edges[:, 1], g.edges[:, 0]] = g.weights
    lap = np.eye(g.n) - a / wdeg[:, None] if g.n else np.zeros((0, 0))
    return lap


def dense_eigenmaps_oracle(g, dim):
    """Spectral embedding from a dense solve of all n eigenpairs of the
    generalized problem (D - A) x = lambda D x.

    Follows the embedder's conventions: one zero mode per component is
    skipped, eigenvectors are D-orthonormal and each column's
    largest-magnitude entry is positive.  Returns (embedding, eigenvalues).
    """
    wdeg = g.weighted_degrees
    lap = wdeg[:, None] * rw_normalized_laplacian(g)
    vals, vecs = scipy.linalg.eigh(lap, np.diag(wdeg))
    comps = component_count(g)
    vals, vecs = vals[comps:comps + dim], vecs[:, comps:comps + dim]
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(dim)]
    return vecs * np.sign(top), vals


def clique_rw_spectrum(n):
    """Eigenvalues of the clique's random-walk Laplacian with multiplicities.

    A clique of n nodes has exactly two: 0 (multiplicity 1) and 1 + 1/(n-1)
    (multiplicity n-1), which is why spectral embeddings of near-complete
    cores are an arbitrary basis choice.
    """
    if n < 2:
        raise ValueError("clique spectrum needs n >= 2")
    return [(0.0, 1), (1.0 + 1.0 / (n - 1), n - 1)]


def cluster_eigenvalues(vals, tol=1e-6):
    """Group sorted eigenvalues into (value, multiplicity) pairs within tol."""
    vals = np.sort(np.asarray(vals, dtype=np.float64))
    out = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[start] > tol:
            out.append((float(vals[start:i].mean()), i - start))
            start = i
    return out


def clique_spectrum_numeric(n, cluster_tol=1e-6):
    """Directly diagonalize the clique Laplacian (symmetric for cliques)."""
    lap = rw_normalized_laplacian(complete_graph(n))
    return cluster_eigenvalues(np.linalg.eigvalsh(lap), cluster_tol)


def clique_spectrum_shift_oracle(n, cluster_tol=1e-6):
    """Independent spectrum via the all-ones decomposition.

    The clique Laplacian is an affine map of the all-ones matrix:
    scale its numerically computed eigenvalues by -1/(n-1) and shift by
    1 + 1/(n-1).  Serves as the oracle path for the direct diagonalization.
    """
    ones_eigs = np.linalg.eigvalsh(np.ones((n, n)))
    mapped = (-1.0 / (n - 1)) * ones_eigs + (1.0 + 1.0 / (n - 1))
    return cluster_eigenvalues(mapped, cluster_tol)
