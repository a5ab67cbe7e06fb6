"""Checks of every workload output against computations made apart from corestab.

Nothing here imports corestab: coreness, cores and shell features come from
networkx and from a triangle count written for the benchmark, distances and
EMDs are re-read from the output files and compared with
``scipy.stats.wasserstein_distance``, and the stable losses are recomputed
with numpy from the written embeddings.  Each check returns a list of
mismatch messages; an empty list means the outputs are correct.
"""

import hashlib
import json
import math
import os
import struct

import networkx as nx
import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import expit
from scipy.stats import rankdata, wasserstein_distance

from inputs import nx_graph

RTOL = 1e-9
# networkx recounts the triangles of every k-core up to this many edges; the
# benchmark's own triangle listing covers every k-core of every graph
NX_FEATURE_EDGES = 60000
# engine checks: dense generalized eigensolve up to this many nodes, which
# covers the k-cores corestab solves with sparse Lanczos in every workload
DENSE_CHECK_NODES = 2000
EIG_TOL = 1e-6
# line1 edge-versus-pair AUC a result must reach, by training batches; the
# short warm start stable_train gives its full-graph init is only checked
# finite
LINE1_MIN_AUC = ((50, 0.75), (30, 0.7), (10, 0.6))


def close(a, b, rtol=RTOL, atol=1e-12):
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=atol)


def read_column(path, header):
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path}: header {first!r}, expected {header!r}")
        text = fh.read()
    return np.array(text.split(), dtype=np.float64)


def read_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def read_embedding(path):
    rows = read_rows(path)
    ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    return ids, np.array([[float(x) for x in r[1:]] for r in rows[1:]])


class GraphOracle:
    """Coreness and per-k-core features of an edge list (original ids)."""

    def __init__(self, edges):
        self.edges = edges
        self.g = nx_graph(edges)
        self.nodes = np.array(sorted(self.g.nodes()), dtype=np.int64)
        core_number = nx.core_number(self.g)
        self.coreness = {int(v): int(c) for v, c in core_number.items()}
        self.k_max = max(self.coreness.values())
        self.core = np.array(sorted(v for v, c in self.coreness.items()
                                    if c == self.k_max), dtype=np.int64)
        self.shells = sorted(set(self.coreness.values()) - {0})
        self._features = None

    def share_ks(self):
        """Shell values corestab share must visit: 0, then each coreness."""
        if len(self.core) == len(self.nodes):
            return [0]
        return [0] + self.shells

    def core_completeness(self):
        inside = self.g.subgraph(self.core.tolist()).number_of_edges()
        c = len(self.core)
        return inside / (c * (c - 1) // 2)

    def features(self):
        """k -> (size, density, avg clustering, transitivity) for each k-core."""
        if self._features is None:
            self._features = shell_features(self.edges, self.nodes,
                                            self.coreness)
        return self._features

    def nx_features(self, k):
        """networkx's figures for the k-core, or None if it is large.

        Mean clustering and transitivity follow networkx's definitions from
        ``nx.triangles``: 2T/(d(d-1)) per node (0 below degree 2), and
        sum(T) / sum(d(d-1)/2).
        """
        core = np.array([self.coreness[int(v)] for v in self.edges.ravel()])
        keep = core.reshape(-1, 2).min(axis=1) >= k
        if keep.sum() > NX_FEATURE_EDGES:
            return None
        h = nx_graph(self.edges[keep])
        h.add_nodes_from(v for v, c in self.coreness.items() if c >= k)
        tri = nx.triangles(h)
        local, pairs = [], 0
        for v, d in h.degree():
            local.append(2 * tri[v] / (d * (d - 1)) if d >= 2 else 0.0)
            pairs += d * (d - 1) // 2
        return (h.number_of_nodes(), nx.density(h), float(np.mean(local)),
                sum(tri.values()) / pairs if pairs else 0.0)

    def check_features(self, k, size, density, clustering, transitivity,
                       where):
        got = (size, density, clustering, transitivity)
        errors = []
        for source, want in (("triangles", self.features()[k]),
                             ("networkx", self.nx_features(k))):
            if want is None:
                continue
            if int(got[0]) != int(want[0]) or not all(
                    close(a, b) for a, b in zip(got[1:], want[1:])):
                errors.append(f"{where} k={k}: features {got} != {source} "
                              f"{want}")
        return errors


def shell_features(edges, nodes, coreness):
    """Size, density, mean clustering and transitivity of every k-core.

    One pass lists each triangle once: edges point from lower to higher
    (coreness, degree, id) rank and every pair of a node's out-neighbours is
    looked up among the edges.  A triangle lies in the k-core for every k up
    to the coreness of its lowest-ranked node, and an edge for every k up to
    the smaller coreness of its ends, so per-node triangle counts and degrees
    of all k-cores follow from cumulative sums over that level.
    """
    n = len(nodes)
    e = np.searchsorted(nodes, edges)
    core = np.array([coreness[int(v)] for v in nodes], dtype=np.int64)
    levels = int(core.max()) + 1
    deg = np.bincount(e.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg, core))] = np.arange(n)
    flip = rank[e[:, 0]] > rank[e[:, 1]]
    lo = np.where(flip, e[:, 1], e[:, 0])
    hi = np.where(flip, e[:, 0], e[:, 1])
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    out_deg = np.bincount(lo, minlength=n)
    end = np.cumsum(out_deg)[lo]                  # end of each row's list
    pairs_after = end - np.arange(len(lo)) - 1
    first = np.repeat(np.arange(len(lo)), pairs_after)
    starts = np.cumsum(pairs_after) - pairs_after
    second = first + 1 + np.arange(len(first)) - np.repeat(starts, pairs_after)
    v, w = hi[first], hi[second]
    codes = np.sort(np.minimum(e[:, 0], e[:, 1]) * n
                    + np.maximum(e[:, 0], e[:, 1]))
    want = np.minimum(v, w) * n + np.maximum(v, w)
    pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    closed = codes[pos] == want
    u, v, w = lo[first][closed], v[closed], w[closed]
    level = core[u]

    def per_level(node_ids, node_levels):
        counts = np.bincount(node_ids * levels + node_levels,
                             minlength=n * levels).reshape(n, levels)
        # column k: count at level >= k
        return np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]

    tri = per_level(np.concatenate([u, v, w]), np.tile(level, 3))
    edge_level = np.minimum(core[e[:, 0]], core[e[:, 1]])
    dk = per_level(e.ravel(), np.repeat(edge_level, 2))
    result = {}
    for k in range(levels):
        keep = core >= k
        size = int(keep.sum())
        d = dk[keep, k].astype(np.float64)
        t = tri[keep, k].astype(np.float64)
        m = d.sum() / 2
        density = 2.0 * m / (size * (size - 1)) if size >= 2 else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(d >= 2, 2 * t / (d * (d - 1)), 0.0)
        triples = float((d * (d - 1) / 2).sum())
        result[k] = (size, density, float(local.mean()) if size else 0.0,
                     float(t.sum() / triples) if triples > 0 else 0.0)
    return result


def output_digests(out_dir):
    """sha256 of every primary output (the manifest is excepted)."""
    digests = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            if f == "manifest.json":
                continue
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digests


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(out_dir)
               for f in files if f != "manifest.json")


def check_kcore(out, oracle):
    errors = []
    rows = read_rows(os.path.join(out, "coreness.csv"))
    if rows[0] != ["node_id", "coreness"]:
        errors.append(f"coreness.csv header {rows[0]}")
    got = {int(r[0]): int(r[1]) for r in rows[1:]}
    if got != oracle.coreness or len(rows) - 1 != len(oracle.nodes):
        bad = sum(got.get(v) != c for v, c in oracle.coreness.items())
        errors.append(f"coreness.csv: {bad} nodes differ from networkx")

    with open(os.path.join(out, "kcore_summary.json")) as fh:
        summary = json.load(fh)
    expect = {"n": len(oracle.nodes), "m": len(oracle.edges),
              "degeneracy": oracle.k_max,
              "degenerate_core": oracle.core.tolist()}
    for key, want in expect.items():
        if summary.get(key) != want:
            errors.append(f"kcore_summary.json {key} differs from networkx")
    if not close(summary.get("core_completeness"),
                 oracle.core_completeness()):
        errors.append("kcore_summary.json core_completeness "
                      f"{summary.get('core_completeness')} != "
                      f"{oracle.core_completeness()}")

    rows = read_rows(os.path.join(out, "core_features.csv"))
    ks = [int(r[0]) for r in rows[1:]]
    if ks != [0] + oracle.shells:
        errors.append(f"core_features.csv shells {ks}")
    for r in rows[1:]:
        errors += oracle.check_features(
            int(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]),
            "core_features.csv")
    return errors


def check_share(out, oracle):
    errors = []
    with open(os.path.join(out, "share_report.json")) as fh:
        report = json.load(fh)
    records = report["records"]
    ks = [r["k"] for r in records]
    if report.get("partial") or ks != oracle.share_ks():
        errors.append(f"share shells {ks} != {oracle.share_ks()}")
    for r in records:
        errors += oracle.check_features(
            r["k"], r["size"], r["edge_density"],
            r["avg_clustering_coefficient"], r["transitivity"],
            "share_report.json")

    csv_rows = read_rows(os.path.join(out, "share_report.csv"))[1:]
    for r, row in zip(records, csv_rows):
        want = [str(r["k"]), repr(float(r["emd"])),
                "" if r["delta"] is None else repr(float(r["delta"])),
                str(r["size"]), repr(float(r["edge_density"])),
                repr(float(r["avg_clustering_coefficient"])),
                repr(float(r["transitivity"]))]
        if row != want:
            errors.append(f"share_report.csv k={r['k']} differs from json")
    if len(csv_rows) != len(records):
        errors.append("share_report.csv row count differs from json")

    dist_dir = os.path.join(out, "distributions")
    files = sorted(os.listdir(dist_dir))
    if files != sorted(f"k{k}.csv" for k in ks):
        errors.append(f"distribution files {files} for shells {ks}")
    c = len(oracle.core)
    dists = {}
    for k in ks:
        d = read_column(os.path.join(dist_dir, f"k{k}.csv"), "distance")
        if len(d) != c * (c - 1) // 2:
            errors.append(f"k{k}.csv holds {len(d)} distances, core {c}")
        if not (np.isfinite(d).all() and (d >= 0).all()
                and (np.diff(d) >= 0).all()):
            errors.append(f"k{k}.csv is not sorted, finite and nonnegative")
        dists[k] = d

    prev = 0.0
    for i, r in enumerate(records):
        if i == 0:
            if r["emd"] != 0.0 or r["delta"] is not None:
                errors.append("baseline record has emd/delta set")
            continue
        want = wasserstein_distance(dists[r["k"]], dists[ks[0]])
        if not close(r["emd"], want, rtol=1e-7):
            errors.append(f"k={r['k']}: emd {r['emd']} != scipy {want}")
        if r["delta"] is None or not close(r["delta"], r["emd"] - prev):
            errors.append(f"k={r['k']}: delta {r['delta']} != emd step")
        prev = r["emd"]
    return errors


def check_stable(out, oracle, config):
    errors = []
    ids, emb = read_embedding(os.path.join(out, "embeddings.csv"))
    core_ids, ref = read_embedding(os.path.join(out, "isolated_core.csv"))
    if not np.array_equal(ids, oracle.nodes):
        errors.append("embeddings.csv node ids differ from the input's")
    if not np.array_equal(core_ids, oracle.core):
        errors.append("isolated_core.csv ids are not networkx's max core")
    if emb.shape[1] != config["dim"] or not np.isfinite(emb).all():
        errors.append("embeddings.csv is not a finite dim-column matrix")

    with open(os.path.join(out, "embeddings.bin"), "rb") as fh:
        blob = fh.read()
    n, dim = struct.unpack("<QQ", blob[8:24])
    binary = np.frombuffer(blob[24:], dtype="<f8")
    if (blob[:8] != b"CRSTEMB1" or (n, dim) != emb.shape
            or not np.array_equal(binary.reshape(n, dim), emb)):
        errors.append("embeddings.bin differs from embeddings.csv")

    row = {int(v): i for i, v in enumerate(ids)}
    cu = emb[[row[int(v)] for v in core_ids]]
    iu = np.triu_indices(len(core_ids), 1)
    gaps = ((expit(cu @ cu.T) - expit(ref @ ref.T)) ** 2)[iu]
    penalty = float(gaps.sum())
    a = emb[[row[int(v)] for v in oracle.edges[:, 0]]]
    b = emb[[row[int(v)] for v in oracle.edges[:, 1]]]
    base = float(-np.log(expit(np.einsum("ed,ed->e", a, b))).sum())

    trace = read_rows(os.path.join(out, "loss_trace.csv"))
    if trace[0] != ["batch", "base_loss", "stability_loss"]:
        errors.append(f"loss_trace.csv header {trace[0]}")
    batches = [int(r[0]) for r in trace[1:]]
    if batches != list(range(config["batches"])):
        errors.append("loss_trace.csv does not list every batch once")
    last = trace[-1]
    if not close(float(last[1]), base):
        errors.append(f"final base loss {last[1]} != recomputed {base}")
    if not close(float(last[2]), penalty):
        errors.append(f"final penalty {last[2]} != recomputed {penalty}")

    errs = read_column(os.path.join(out, "stability_errors.csv"), "error")
    if len(errs) != len(gaps) or not (np.diff(errs) >= 0).all():
        errors.append("stability_errors.csv is not one sorted gap per pair")
    elif not np.allclose(errs, np.sort(gaps), rtol=1e-7, atol=1e-15):
        errors.append("stability_errors.csv differs from recomputed gaps")
    if not close(errs.sum(), penalty):
        errors.append(f"stability errors sum {errs.sum()} != {penalty}")

    with open(os.path.join(out, "config.json")) as fh:
        echoed = json.load(fh)
    if any(echoed.get(k) != v for k, v in config.items()):
        errors.append(f"config.json {echoed} does not echo {config}")
    return errors


def check_outputs(command, out, oracle, config):
    if command == "kcore":
        return check_kcore(out, oracle)
    if command == "share":
        return check_share(out, oracle)
    return check_stable(out, oracle, config)


def failed_shells(out, oracle):
    """Shells a partial share report (exit 4) is missing."""
    with open(os.path.join(out, "share_report.json")) as fh:
        done = {r["k"] for r in json.load(fh)["records"]}
    return len(set(oracle.share_ks()) - done)


# --- engine checks, run in the traced process after the command ---------

def _laplacian(g):
    adj = sp.csr_matrix((np.concatenate([g.weights, g.weights]),
                         (np.concatenate([g.edges[:, 0], g.edges[:, 1]]),
                          np.concatenate([g.edges[:, 1], g.edges[:, 0]]))),
                        shape=(g.n, g.n))
    d = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(d) - adj, d, adj


def check_spectral(g, dim, emb):
    errors = []
    lap, d, adj = _laplacian(g)
    v = np.asarray(emb, dtype=np.float64)
    dv = d[:, None] * v
    gram = v.T @ dv
    if np.abs(gram - np.eye(v.shape[1])).max() > EIG_TOL:
        errors.append(f"n={g.n}: embedding is not D-orthonormal")
    if np.abs(d @ v).max() / math.sqrt(d.sum()) > EIG_TOL:
        errors.append(f"n={g.n}: embedding is not D-orthogonal to 1")
    lv = lap @ v
    lam = np.einsum("nd,nd->d", v, lv)
    resid = np.linalg.norm(lv - dv * lam, axis=0) / np.linalg.norm(dv, axis=0)
    if resid.max() > EIG_TOL:
        errors.append(f"n={g.n}: Rayleigh residual {resid.max():.2e}")
    if g.n <= DENSE_CHECK_NODES:
        comps, _ = connected_components(adj, directed=False)
        want = scipy.linalg.eigh(lap.toarray(), np.diag(d),
                                 eigvals_only=True)[comps:comps + dim]
        if np.abs(np.sort(lam) - want).max() > EIG_TOL:
            errors.append(f"n={g.n}: eigenvalues differ from a dense solve")
    return errors


def check_line1(g, spec, emb, rng):
    emb = np.asarray(emb, dtype=np.float64)
    if not np.isfinite(emb).all():
        return [f"n={g.n}: line1 embedding is not finite"]
    floor = next((auc for batches, auc in LINE1_MIN_AUC
                  if spec.batches >= batches), None)
    if floor is None:
        return []
    size = min(g.m, 20000)
    pick = rng.choice(g.m, size=size, replace=False)
    pos = np.einsum("ed,ed->e", emb[g.edges[pick, 0]], emb[g.edges[pick, 1]])
    u = rng.integers(0, g.n, size=size)
    v = (u + rng.integers(1, g.n, size=size)) % g.n
    neg = np.einsum("ed,ed->e", emb[u], emb[v])
    ranks = rankdata(np.concatenate([pos, neg]))
    auc = (ranks[:size].sum() - size * (size + 1) / 2) / (size * size)
    if auc < floor:
        return [f"n={g.n}: line1 edge-versus-pair AUC {auc:.3f}"]
    return []


def check_engines(calls, seed):
    """Each recorded engine result against its defining properties."""
    rng = np.random.default_rng([seed, 99])
    errors = []
    for name, args, kwargs, result in calls:
        if name == "embed.spectral":
            emb = result[0] if isinstance(result, tuple) else result
            dim = args[1] if len(args) > 1 else kwargs["dim"]
            errors += check_spectral(args[0], dim, emb)
        else:
            errors += check_line1(args[0], args[1], result, rng)
    return errors
