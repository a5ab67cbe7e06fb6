"""Seeded input graphs for the benchmark workloads.

The generators live here rather than in ``corestab.synth`` so that a change
to the library's generators cannot change what the benchmark measures.
Every graph is simple: self-loops and duplicate pairs are dropped before the
edge list is written, so no node is left whose only edge was a self-loop.

Regenerate the inputs of one seed with

    python3 bench/inputs.py --seed 1 --out inputs-seed1

which writes one edge list per workload plus ``inputs.json`` (the make-up
of each graph).
"""

import argparse
import json
import os

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from workloads import WORKLOADS


def _simple_pairs(u, v, n):
    """Canonical (lo, hi) rows, self-loops and duplicates dropped, sorted."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    codes = np.unique(lo[keep] * n + hi[keep])
    return np.column_stack([codes // n, codes % n])


def erdos_renyi(n, m, rng):
    """G(n, m): exactly ``m`` distinct pairs drawn uniformly."""
    ii, jj = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(len(ii), size=m, replace=False))
    return np.column_stack([ii[pick], jj[pick]])


def chung_lu(n, mean_degree, exponent, max_degree, rng):
    """Edge-sampling Chung-Lu graph with a truncated power-law weight sequence.

    Node i carries the fixed weight (i + i0)^(-1/(exponent-1)), scaled to
    the requested mean degree, where i0 caps the largest expected degree at
    ``max_degree``.  n * mean_degree / 2 edges are drawn with both endpoints
    proportional to weight; self-loops and repeats are dropped.  The weights
    do not depend on the seed, so graphs of different seeds have the same
    expected make-up.
    """
    a = 1.0 / (exponent - 1.0)
    ranks = np.arange(n, dtype=np.float64)
    # pick the offset so the first weight is max_degree after scaling
    lo, hi = 0.0, float(n)
    for _ in range(100):
        i0 = 0.5 * (lo + hi)
        w = (ranks + i0) ** -a
        if w[0] / w.mean() * mean_degree > max_degree:
            lo = i0
        else:
            hi = i0
    w = (ranks + hi) ** -a
    p = w / w.sum()
    draws = int(round(n * mean_degree / 2))
    u = rng.choice(n, size=draws, p=p)
    v = rng.choice(n, size=draws, p=p)
    return _simple_pairs(u, v, n)


def largest_component(edges, n):
    """Edge rows of the largest connected component (ties: smallest label)."""
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                     shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    counts = np.bincount(labels[edges[:, 0]], minlength=labels.max() + 1)
    return edges[labels[edges[:, 0]] == np.argmax(counts)]


def ba_core_with_pendants(n_core, m_attach, pendants, rng):
    """Barabasi-Albert core plus a periphery of degree-1 nodes.

    The core starts as a clique on ``m_attach + 1`` nodes and every later
    node links to ``m_attach`` distinct earlier nodes drawn by degree, so
    every core node has coreness exactly ``m_attach``.  Each pendant
    (ids ``n_core`` onward) hangs off a uniformly drawn core node and has
    coreness 1.  The degenerate core is therefore the ``n_core`` BA nodes,
    whatever the seed.
    """
    edges = [(i, j) for i in range(m_attach + 1)
             for j in range(i + 1, m_attach + 1)]
    repeated = [v for e in edges for v in e]
    for source in range(m_attach + 1, n_core):
        picked = set()
        while len(picked) < m_attach:
            picked.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(picked):
            edges.append((t, source))
            repeated += [t, source]
    hubs = rng.integers(0, n_core, size=pendants)
    edges += [(int(h), n_core + p) for p, h in enumerate(hubs)]
    e = np.array(edges, dtype=np.int64)
    return _simple_pairs(e[:, 0], e[:, 1], n_core + pendants)


def nx_graph(edges):
    g = nx.Graph()
    g.add_edges_from(map(tuple, np.asarray(edges).tolist()))
    return g


def describe_graph(edges):
    """n, m, degeneracy, degenerate-core size, populated shell count and
    the node count of each populated k-core, smallest k first."""
    g = nx_graph(edges)
    coreness = np.array(list(nx.core_number(g).values()))
    k_max = int(coreness.max())
    ks = np.unique(coreness)
    return {"n": g.number_of_nodes(), "m": g.number_of_edges(),
            "k_max": k_max, "core_size": int((coreness == k_max).sum()),
            "shells": int(len(ks)),
            "kcore_sizes": [int((coreness >= k).sum()) for k in ks]}


def write_edge_list(path, edges):
    with open(path, "w") as fh:
        fh.write("".join(f"{int(u)} {int(v)}\n" for u, v in edges))


def _draw(kind, params, rng):
    if kind == "er":
        return erdos_renyi(params["n"], params["m"], rng)
    if kind == "chung_lu":
        edges = chung_lu(params["n"], params["mean_degree"],
                         params["exponent"], params["max_degree"], rng)
        if params.get("largest_component"):
            edges = largest_component(edges, params["n"])
        return edges
    if kind == "ba_pendants":
        return ba_core_with_pendants(params["n_core"], params["m_attach"],
                                     params["pendants"], rng)
    raise ValueError(f"unknown generator {kind!r}")


_KIND_STREAM = {"er": 1, "chung_lu": 2, "ba_pendants": 3}
_MAX_DRAWS = 200


def make_graph(kind, params, seed):
    """Edge rows for one generator spec, drawn from the seed's own streams.

    With ``params["accept"]`` (a populated shell count, a degenerate-core
    size window and, optionally, ``over: [nodes, count]``, the number of
    populated k-cores with more than ``nodes`` nodes) the graph is redrawn
    from the next stream of the same seed until its make-up fits, so the
    amount of work does not depend on the seed.  The same seed always gives
    the same graph.
    """
    accept = params.get("accept")
    for attempt in range(_MAX_DRAWS):
        rng = np.random.default_rng([seed, _KIND_STREAM[kind], attempt])
        edges = _draw(kind, params, rng)
        if accept is None:
            return edges
        d = describe_graph(edges)
        lo, hi = accept["core"]
        over = accept.get("over")
        if (d["shells"] == accept["shells"] and lo <= d["core_size"] <= hi
                and (over is None or over[1] == sum(
                    s > over[0] for s in d["kcore_sizes"]))):
            return edges
    raise RuntimeError(f"no {kind} draw in {_MAX_DRAWS} fits {accept}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    makeup = {}
    for name, wl in WORKLOADS.items():
        kind, params = wl["graph"]
        edges = make_graph(kind, params, args.seed)
        path = os.path.join(args.out, f"{name}.txt")
        write_edge_list(path, edges)
        makeup[name] = describe_graph(edges)
    with open(os.path.join(args.out, "inputs.json"), "w") as fh:
        json.dump(makeup, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(makeup, sort_keys=True))


if __name__ == "__main__":
    main()
