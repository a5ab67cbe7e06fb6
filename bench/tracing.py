"""Spans around corestab's public functions, installed from outside.

``Tracer.install`` wraps the functions listed in ``SPANS`` in every corestab
module namespace that binds them (``from .graph import load_edge_list``
copies the name into ``corestab.cli``, so each copy is rebound), and the
methods on their class.  A wrapper records one span (name, start, end,
parent) per call; spans stay in memory and are written out when the command
ends.  Per-element helpers such as ``fmt_float`` are never wrapped.  A name
that a later corestab no longer has is reported as not called.
"""

import sys
import threading
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" wraps a method
SPANS = {
    "graph.load": ("corestab.graph", "load_edge_list"),
    "graph.cores": ("corestab.graph", "core_decomposition"),
    "graph.induced": ("corestab.graph", "Graph.induced_subgraph"),
    "graph.components": ("corestab.graph", "Graph.component_count"),
    "graph.features": ("corestab.graph", "subgraph_features"),
    "embed.dispatch": ("corestab.embed", "embed_graph"),
    "embed.line1": ("corestab.embed", "line1_embed"),
    "embed.spectral": ("corestab.embed", "laplacian_eigenmaps"),
    "share.run": ("corestab.share", "run_share"),
    "share.pdist": ("corestab.share", "pairwise_distribution"),
    "share.emd": ("corestab.share", "emd_1d"),
    "stable.train": ("corestab.stable", "stable_train"),
    "stable.ref_embed": ("corestab.stable", "isolated_core_embedding"),
    "stable.augment": ("corestab.stable", "degenerate_clique_augment"),
    "stable.penalty_eval": ("corestab.stable", "instability_penalty"),
    "stable.base_loss": ("corestab.embed", "line_base_loss"),
    "evaluation.stability_errors": ("corestab.evaluation",
                                    "stability_error_distribution"),
    "cli.kcore": ("corestab.cli", "cmd_kcore"),
    "cli.share": ("corestab.cli", "cmd_share"),
    "cli.stable": ("corestab.cli", "cmd_stable"),
}

HANDLERS = ("cli.kcore", "cli.share", "cli.stable")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, None
        self.parent, self.attrs = parent, {}


def _attrs(name, args, result):
    """Exact work counts read from a call's arguments and result."""
    if name == "embed.line1":
        g, spec = args[0], args[1]
        return {"draws": int(spec.batches) * int(g.m)}
    if name == "share.pdist":
        return {"pairs": int(len(result))}
    if name == "stable.augment":
        return {"edges": int(result.m)}
    if name == "stable.train":
        return {"batches": int(args[1].batches)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.engine_calls = []   # (span name, args, kwargs, result)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            try:
                span.attrs = _attrs(name, args, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a later signature: the span stays, the count is lost
            if name in ("embed.line1", "embed.spectral"):
                tracer.engine_calls.append((name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every listed name; remember the names that do not exist."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "corestab" or k.startswith("corestab.")]
        for name, (module, attr) in SPANS.items():
            owner = sys.modules.get(module)
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            fn = getattr(holder, meth, None) if holder is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, fn)
            if cls_name:
                setattr(holder, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def records(self):
        """Spans as plain rows, with their parent's index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index[id(s.parent)] if s.parent else None,
                 "attrs": s.attrs} for s in self.spans]


def layer_metrics(spans, wall_s):
    """Per-layer seconds, self times and counts from one command's spans."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for i, s in enumerate(spans):
        total[s["name"]] += dur[i]
        self_s[s["name"]] += dur[i] - child[i]
        calls[s["name"]] += 1
        for key, value in s["attrs"].items():
            counts[f"{s['name']}.{key}"] += value

    init_embed = sum(dur[i] for i, s in enumerate(spans)
                     if s["name"] == "embed.dispatch" and s["parent"] is not None
                     and spans[s["parent"]]["name"] == "stable.train")
    stable_draws = 0
    for i, s in enumerate(spans):
        if s["name"] == "stable.train":
            aug = sum(c["attrs"].get("edges", 0) for c in spans
                      if c["parent"] == i and c["name"] == "stable.augment")
            stable_draws += s["attrs"].get("batches", 0) * aug

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "graph.load_s": total["graph.load"],
        "graph.cores_s": total["graph.cores"],
        "graph.induced_s": total["graph.induced"],
        "graph.components_s": total["graph.components"],
        "graph.features_s": total["graph.features"],
        "embed.line1_s": total["embed.line1"],
        "embed.line1_draws": counts["embed.line1.draws"],
        "embed.line1_draws_per_s": rate(counts["embed.line1.draws"],
                                        total["embed.line1"]),
        "embed.spectral_s": total["embed.spectral"],
        "embed.spectral_calls": calls["embed.spectral"],
        "share.run_s": total["share.run"],
        "share.pdist_s": total["share.pdist"],
        "share.emd_s": total["share.emd"],
        "share.self_s": self_s["share.run"],
        "share.shells": calls["share.pdist"],
        "share.pairs": counts["share.pdist.pairs"],
        "stable.train_s": total["stable.train"],
        "stable.ref_embed_s": total["stable.ref_embed"],
        "stable.init_embed_s": init_embed,
        "stable.augment_s": total["stable.augment"],
        "stable.aug_edges": counts["stable.augment.edges"],
        "stable.penalty_eval_s": total["stable.penalty_eval"],
        "stable.base_loss_s": total["stable.base_loss"],
        "stable.sgd_s": self_s["stable.train"],
        "stable.draws": stable_draws,
        "stable.draws_per_s": rate(stable_draws, self_s["stable.train"]),
        "evaluation.stability_errors_s": total["evaluation.stability_errors"],
        "cli.output_s": sum(self_s[h] for h in HANDLERS),
        "trace.unattributed_s": wall_s - sum(self_s.values()),
    }
