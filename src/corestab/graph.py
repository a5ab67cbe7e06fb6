"""Undirected weighted graphs, k-core peeling, and subgraph features."""

import logging
from dataclasses import dataclass

import numpy as np

from ._util import read_text

log = logging.getLogger(__name__)


class GraphParseError(ValueError):
    """Malformed edge-list input."""


def _pair_order(a, b, n):
    """An order that sorts the pairs (a[i], b[i]) of ids in 0..n-1
    lexicographically; equal pairs come in no fixed order."""
    if n <= 3_037_000_499:  # n * n - 1 fits in int64
        return np.argsort(a * n + b)
    return np.lexsort((b, a))


class Graph:
    """Undirected weighted simple graph over dense node ids 0..n-1.

    Edges are stored once as (i, j) rows with i < j, sorted lexicographically.
    ``orig_ids[v]`` maps a dense id back to the id it carried in the source
    data so all reports can speak the caller's vocabulary.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, n, edges, weights=None, orig_ids=None):
        n = int(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(edges))
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(edges):
            raise ValueError("weights and edges length mismatch")
        if len(edges):
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint outside 0..n-1")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            if not np.isfinite(weights).all():
                raise ValueError("non-finite edge weight")
            if (weights < 0).any():
                raise ValueError("negative edge weight")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            order = _pair_order(lo, hi, n)
            edges = np.column_stack([lo[order], hi[order]])
            weights = weights[order]
            dup = (np.diff(edges[:, 0]) == 0) & (np.diff(edges[:, 1]) == 0)
            if dup.any():
                raise ValueError("duplicate edges are not allowed")
        if orig_ids is None:
            orig_ids = np.arange(n, dtype=np.int64)
        orig_ids = np.asarray(orig_ids, dtype=np.int64)
        if len(orig_ids) != n:
            raise ValueError("orig_ids length mismatch")

        self.n = n
        self.edges = edges
        self.weights = weights
        self.orig_ids = orig_ids
        self._adj = None
        self._degrees = None

    @property
    def m(self):
        return len(self.edges)

    @property
    def degrees(self):
        if self._degrees is None:
            self._degrees = np.bincount(self.edges.T.ravel(), minlength=self.n)
        return self._degrees

    @property
    def weighted_degrees(self):
        # bincount returns integers when there are no edges
        d = np.bincount(self.edges.T.ravel(), np.tile(self.weights, 2),
                        minlength=self.n)
        return d.astype(np.float64, copy=False)

    def adjacency(self):
        """CSR-style (indptr, neighbors, edge_weights); neighbor lists sorted."""
        if self._adj is None:
            src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            w = np.concatenate([self.weights, self.weights])
            order = _pair_order(src, dst, self.n)
            src, dst, w = src[order], dst[order], w[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._adj = (indptr, dst, w)
        return self._adj

    def induced_subgraph(self, nodes):
        """Subgraph on the distinct dense ids in ``nodes``, in any order,
        relabelled to 0..len-1 in id order."""
        keep = np.zeros(self.n, dtype=bool)
        keep[np.asarray(nodes, dtype=np.int64)] = True
        nodes = np.flatnonzero(keep)
        if self.m:
            mask = keep[self.edges[:, 0]] & keep[self.edges[:, 1]]
            # a kept id's new label is the count of kept ids below it
            sub_edges = (np.cumsum(keep) - 1)[self.edges[mask]]
            sub_w = self.weights[mask]
        else:
            sub_edges = np.zeros((0, 2), dtype=np.int64)
            sub_w = np.zeros(0)
        return Graph(len(nodes), sub_edges, sub_w, self.orig_ids[nodes])

    def edge_key_set(self):
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass(frozen=True)
class CorenessMap:
    """Per-node coreness plus the graph degeneracy and its degenerate core."""
    coreness: np.ndarray
    k_max: int
    degenerate_core: np.ndarray  # sorted dense ids with coreness == k_max


@dataclass(frozen=True)
class SubgraphFeatures:
    size: int
    edge_density: float
    avg_clustering_coefficient: float
    transitivity: float


# str.split() separates tokens at exactly the characters for which
# str.isspace() holds, and none lies above U+3000; the last entry stands
# for every code point above
_IS_SPACE = np.array(list(map(str.isspace, map(chr, range(0x3002)))))


_ID_DIGITS = 19  # 2^63 - 1 has 19 digits, and 10^19 - 1 fits in uint64


def _read_ids(codes, starts, ends):
    """The ids spelled by the tokens ``codes[starts[i]:ends[i]]``, as int64.

    Horner's rule runs over the last ``_ID_DIGITS`` digit places of every
    token at once, right-aligned, so a token's places before its start read
    as 0; a longer token is valid only when its extra leading places are
    all ``0``.  This is the array form of ``id_fault``: a token it faults
    raises ValueError.
    """
    acc = np.zeros(starts.shape, dtype=np.uint64)
    bad = np.zeros(starts.shape, dtype=bool)
    width = int((ends - starts).max(initial=0))
    for back in range(min(width, _ID_DIGITS), 0, -1):
        place = ends - back
        inside = place >= starts
        digit = codes.take(place, mode="clip") - ord("0")  # uint32: wraps
        bad |= inside & (digit > 9)
        acc *= 10
        acc += np.where(inside, digit, 0)
    bad |= acc > 2 ** 63 - 1
    if width > _ID_DIGITS:
        long = ends - starts > _ID_DIGITS
        nonzero = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(codes != ord("0"), out=nonzero[1:])
        bad[long] |= (nonzero[ends[long] - _ID_DIGITS]
                      != nonzero[starts[long]])
    if bad.any():
        raise ValueError("an id that is not ASCII digits or above 2^63 - 1")
    return acc.view(np.int64)


def _parse(text):
    """The ids, as an (edges, 2) int64 array, and the weights of the edge
    lines of ``text``, in file order.  Raises ValueError on a malformed
    line."""
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    space = _IS_SPACE.take(codes, mode="clip")
    head = ~space  # a token starts at a non-space after a space
    head[1:] &= space[:-1]
    tail = ~space  # and ends at a non-space before a space
    tail[:-1] &= space[1:]
    starts, ends = np.flatnonzero(head), np.flatnonzero(tail) + 1
    del space, head, tail  # they would hold 3 bytes a code point to the end
    line = np.searchsorted(np.flatnonzero(codes == ord("\n")), starts)
    first = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first token
    counts = np.diff(first, append=len(starts))
    data = codes[starts[first]] != ord("#")
    first, counts = first[data], counts[data]
    if not ((counts == 2) | (counts == 3)).all():
        raise ValueError("a line without 2 or 3 tokens")
    pair = np.column_stack([first, first + 1])
    ids = _read_ids(codes, starts[pair], ends[pair])
    three = counts == 3
    weights = np.ones(len(first))
    if three.any():
        w = first[three] + 2  # the weight tokens, sliced from the text
        spans = zip(starts[w].tolist(), ends[w].tolist())
        weights[three] = np.array([text[a:b] for a, b in spans],
                                  dtype=object).astype(np.float64)
        if not ((weights >= 0) & (weights < np.inf)).all():
            raise ValueError("a negative or non-finite weight")
    return ids, weights


def load_edge_list(path):
    """Parse a whitespace-separated edge list into a Graph.

    A line is ``u v`` or ``u v w``; the two forms may be mixed.  Ids are
    ASCII decimal integers in 0..2^63-1, weights finite floats >= 0 (1.0
    when absent).  A line whose first token starts with ``#`` is a comment,
    and blank lines are skipped.  Line ends are read as universal newlines,
    so CRLF files load too.  Ids are remapped to dense 0..n-1 in id order
    (original ids kept on the Graph).  Duplicate edges collapse keeping the
    last weight; self-loops are dropped with a logged count, and so are
    nodes that appear only in self-loops.  A malformed file raises
    ``GraphParseError`` naming its first offending line.

    Tokens and their lines are found from the code points of the text, and
    ids are read from those code points by array arithmetic (``_read_ids``).
    Only the weight tokens become strings, sliced from the text at those
    token bounds, and go through ``float`` by one numpy cast.
    So no Python code runs per unweighted edge, and memory stays O(text).
    """
    text = read_text(path)
    try:
        ids, weights = _parse(text)
    except ValueError:
        raise GraphParseError(_first_fault(path, text)) from None

    u, v = ids.T
    loop = u == v
    lo, hi = np.minimum(u, v)[~loop], np.maximum(u, v)[~loop]
    orig, dense = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    if loop.any():
        log.warning("%s: dropped %d self-loop(s) and %d node(s) with only "
                    "self-loops", path, loop.sum(),
                    len(np.setdiff1d(u[loop], orig)))
    i, j = np.split(dense, 2)
    order = _pair_order(i, j, len(orig))
    i, j = i[order], j[order]
    run = np.flatnonzero(np.diff(i, prepend=-1) | np.diff(j, prepend=-1))
    # the largest file place in a run of equal pairs is the pair's last copy
    last = np.maximum.reduceat(order, run)
    return Graph(len(orig), np.column_stack([i[run], j[run]]),
                 weights[~loop][last], orig)


def id_fault(token):
    """Why ``token`` is no node id (ASCII digits up to 2^63 - 1), or None."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return "non-integer node id"
    if digits != token:
        return "negative node id" if int(digits) else "non-integer node id"
    return "node id above 2^63 - 1" if int(digits) >= 2 ** 63 else None


def _first_fault(path, text):
    """The error message for the first malformed line of ``text``."""
    for ln, line in enumerate(text.split("\n"), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if len(parts) not in (2, 3):
            return f"{path}:{ln}: expected 'u v' or 'u v w', got {s!r}"
        if cause := id_fault(parts[0]) or id_fault(parts[1]):
            return f"{path}:{ln}: {cause} in {s!r}"
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                return f"{path}:{ln}: bad weight in {s!r}"
            if not np.isfinite(w):
                return f"{path}:{ln}: non-finite weight in {s!r}"
            if w < 0:
                return f"{path}:{ln}: negative weight {w}"
    return f"{path}: malformed edge list"


# rounds one level of the vectorised peel may take before the rest of the
# graph goes to the bin-sort loop.  A round costs about as much as the loop
# on 125 adjacency entries, and the benchmark inputs need at most 34 rounds
# in a level (timing table in CHANGES.md)
_MAX_ROUNDS = 64


def _csr_slices(indptr, nbrs, rows):
    """The neighbours of every node in ``rows``, concatenated."""
    lo = indptr[rows]
    sizes = indptr[rows + 1] - lo
    # place t of the output reads nbrs[lo[r] + t - (start of row r's block)]
    offset = np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
    return nbrs[offset + np.arange(len(offset))]


def core_decomposition(g):
    """Coreness of every node, by level-synchronous peeling.

    At level k (starting at the smallest degree) every alive node of
    current degree <= k leaves in one round and gets coreness k; its
    alive neighbours lose one degree per removed neighbour, and those that
    fall to <= k form the next round.  When a round removes nothing, k
    rises to the smallest alive degree.  Rounds are whole-array steps, as
    in ParK (Dasari, Ranjan & Zubair 2014), and coreness does not depend
    on the order of removal, so the result is exact.

    A level takes as many rounds as its longest peeling chain (n / 2 on a
    path).  So when a level needs more than ``_MAX_ROUNDS``, the induced
    subgraph of the alive nodes goes to the bin-sort loop ``_bz_coreness``
    and each of its nodes gets max(k, its coreness there): for j > k the
    j-cores of g and of that subgraph are the same.

    ``degenerate_core`` is the node set of the maximal k_max-core.  One
    DEBUG line gives n, m, the rounds, the most rounds in one level and
    the level where the loop took over (``none`` when it did not).
    """
    n = g.n
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return CorenessMap(empty, 0, empty)
    indptr, nbrs, _ = g.adjacency()
    deg = g.degrees.copy()
    alive = np.ones(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    rounds = most = 0
    handoff = None
    left = np.arange(n)
    while left.size:
        k = int(deg[left].min())
        frontier = left[deg[left] <= k]
        level_rounds = 0
        while frontier.size:
            if level_rounds == _MAX_ROUNDS:
                handoff = k
                # the alive rows of the CSR, relabelled, are the induced
                # subgraph's CSR, already sorted
                rest = np.flatnonzero(alive)
                sub_indptr = np.zeros(len(rest) + 1, dtype=np.int64)
                np.cumsum(deg[rest], out=sub_indptr[1:])
                keep = np.repeat(alive, np.diff(indptr)) & alive[nbrs]
                sub_nbrs = (np.cumsum(alive) - 1)[nbrs[keep]]
                coreness[rest] = np.maximum(
                    k, _bz_coreness(sub_indptr, sub_nbrs))
                alive[:] = False
                break
            level_rounds += 1
            alive[frontier] = False
            coreness[frontier] = k
            touched = _csr_slices(indptr, nbrs, frontier)
            touched, drop = np.unique(touched[alive[touched]],
                                      return_counts=True)
            deg[touched] -= drop
            frontier = touched[deg[touched] <= k]
        rounds += level_rounds
        most = max(most, level_rounds)
        left = np.flatnonzero(alive)
    log.debug("core_decomposition n=%d m=%d rounds=%d most_in_level=%d "
              "loop_level=%s", n, g.m, rounds, most,
              "none" if handoff is None else handoff)
    k_max = int(coreness.max())
    return CorenessMap(coreness, k_max, np.flatnonzero(coreness == k_max))


def _bz_coreness(indptr, nbrs):
    """Coreness of every node of the graph whose CSR adjacency is
    (``indptr``, ``nbrs``), by min-degree peeling in O(n + m).

    This is the bin-sort algorithm of Batagelj & Zaversnik (2003, "An O(m)
    algorithm for cores decomposition of networks"): nodes sit in an array
    sorted by current degree, with the start of each degree's block kept in
    ``bins``; taking nodes in array order, each neighbour of higher current
    degree is swapped to the front of its block, which then moves up one
    place, and its degree drops by one.  The loop runs on Python lists:
    numpy scalar indexing costs several times more per step.
    """
    deg = np.diff(indptr)
    vert = np.argsort(deg, kind="stable")
    pos = np.empty(len(deg), dtype=np.int64)
    pos[vert] = np.arange(len(deg))
    sizes = np.bincount(deg)
    bins = np.cumsum(sizes) - sizes
    deg, vert, pos, bins = deg.tolist(), vert.tolist(), pos.tolist(), bins.tolist()
    indptr, nbrs = indptr.tolist(), nbrs.tolist()
    # swaps only touch places after the current one, so the list iterator
    # reads every node in its final place
    for v in vert:
        dv = deg[v]
        for u in nbrs[indptr[v]:indptr[v + 1]]:
            du = deg[u]
            if du > dv:
                pu, pw = pos[u], bins[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bins[du] = pw + 1
                deg[u] = du - 1
    return np.array(deg, dtype=np.int64)


# wedges listed per block of source edges; bounds the triangle listing's memory
_WEDGE_BUDGET = 1 << 18


def subgraph_features(g, cm):
    """Size, edge density, mean local clustering and transitivity of every
    k-core, as ``{k: SubgraphFeatures}`` for k = 0 (the whole graph) and then
    each positive coreness value in ascending order.

    The k-cores are nested, so an edge or triangle lies in the k-core exactly
    when its smallest node coreness is >= k.  Triangles are listed once, on
    ``g``, by the "forward" algorithm (Schank & Wagner 2005): every edge
    points from the lower to the higher (degree, id) rank, every pair of a
    node's out-neighbours is a wedge, and a wedge is a triangle when its far
    pair is an edge, found by binary search in the sorted edge codes
    ``i*n + j``.  Each node's edges and triangles are counted by level (the
    index of their smallest coreness in the k list); reverse cumulative sums
    give every k-core's counts.  Wedges go in blocks of about
    ``_WEDGE_BUDGET``, so memory is O(n*S + m) for S levels.  Nodes of degree
    < 2 contribute clustering 0; transitivity is 0 without connected triples.
    """
    n, m = g.n, g.m
    ks = [0] + np.unique(cm.coreness[cm.coreness > 0]).tolist()
    S = len(ks)
    level = np.searchsorted(ks, cm.coreness)
    a, b = g.edges[:, 0], g.edges[:, 1]
    edge_level = np.tile(np.minimum(level[a], level[b]), 2)
    deg = np.bincount(np.concatenate([a, b]) * S + edge_level,
                      minlength=n * S).reshape(n, S)

    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n)
    # the CSR rows are sorted, so the forward entries come out as the
    # out-edges (lo, hi) sorted lexicographically
    indptr, nbrs, _ = g.adjacency()
    src = np.repeat(np.arange(n), np.diff(indptr))
    forward = rank[nbrs] > rank[src]
    lo, hi = src[forward], nbrs[forward]
    # wedge (e, f): out-edges e < f of one node, so hi[e] < hi[f]; ``later``
    # counts the f of each e, and f = e + 1 + the wedge's place in e's run,
    # which is the wedge's index plus shift[e]
    later = np.cumsum(np.bincount(lo, minlength=n))[lo] - np.arange(m) - 1
    ends = np.cumsum(later)
    shift = np.arange(1, m + 1) - ends + later
    # codes are sorted, since edges are stored lexicographically; the
    # sentinel n*n lies above every code
    codes = np.append(a * n + b, n * n)
    tri = np.zeros(n * S, dtype=np.int64)
    # a block holds the edges whose wedges end in one budget-sized range
    cuts = np.unique(np.searchsorted(
        ends, np.arange(0, later.sum() + _WEDGE_BUDGET, _WEDGE_BUDGET),
        side="right"))
    for e0, e1 in zip(cuts[:-1], cuts[1:]):
        first = np.repeat(np.arange(e0, e1), later[e0:e1])
        far = np.arange(ends[e0] - later[e0], ends[e1 - 1]) + shift[first]
        want = hi[first] * n + hi[far]
        # sorted keys search faster; the flags go back to wedge order
        order = np.argsort(want)
        closed = np.empty(len(want), dtype=bool)
        sought = want[order]
        closed[order] = codes[np.searchsorted(codes, sought)] == sought
        corners = np.stack([lo[first[closed]], hi[first[closed]],
                            hi[far[closed]]])
        tri += np.bincount((corners * S + level[corners].min(axis=0)).ravel(),
                           minlength=n * S)
    # reverse cumulative sums over the levels: the counts at level >= s
    deg, tri = (np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
                for c in (deg, tri.reshape(n, S)))

    out = {}
    for s, k in enumerate(ks):
        keep = level >= s
        d, t = deg[keep, s], tri[keep, s]
        size, edges = len(d), int(d.sum()) // 2
        density = 2.0 * edges / (size * (size - 1)) if size >= 2 else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(d >= 2, 2.0 * t / (d * (d - 1.0)), 0.0)
        triples = float(np.sum(d * (d - 1) // 2))
        out[k] = SubgraphFeatures(
            size, float(density), float(local.mean()) if size else 0.0,
            int(t.sum()) / triples if triples > 0 else 0.0)
    return out
