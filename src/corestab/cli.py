"""Command-line driver for reproducible experiments.

Every command that draws random numbers takes a single --seed (config
files carry none) and derives sub-seeds for its internal streams; each
writes its primary outputs atomically, and drops a manifest
(config echo, input hashes, wall time) into the output directory.  Primary
outputs are byte-identical across reruns with the same inputs and seed.

Exit codes: 0 success, 2 input/parse error, 3 numerical failure, 4 partial
result.
"""

import argparse
import glob
import json
import logging
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from ._util import json_dumps_stable, sha256_file, write_atomic, write_csv
from .embed import (EigensolverError, EmbedSpec, load_embedding_csv,
                    save_embedding_binary, save_embedding_csv)
from .evaluation import evaluate, make_split, stability_error_distribution
from .graph import (GraphParseError, SubgraphFeatures, core_decomposition,
                    load_edge_list, subgraph_features)
from .regress import FEATURE_NAMES, collect_samples, ols_fit
from .share import ShareEmbedderError, ShareReport, run_share
from .stable import StableConfig, TrainingDivergence, stable_train
from .synth import GenSpec, generate

log = logging.getLogger("corestab")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4

_FEATURE_FIELDS = [f.name for f in fields(SubgraphFeatures)]


def _load_json(path, cls):
    """``cls.from_dict`` of the JSON file at ``path``; a ValueError names
    the file."""
    try:
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_manifest(out_dir, command, config, seed, inputs, started):
    manifest = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "seed": seed,
        "input_hashes": {os.path.basename(p): sha256_file(p) for p in inputs},
        "tool_version": __version__,
        "wall_time_s": time.time() - started,
    }
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json_dumps_stable(manifest))


def _feature_columns(features):
    return [[getattr(f, name) for f in features] for name in _FEATURE_FIELDS]


def cmd_kcore(args):
    started = time.time()
    g = load_edge_list(args.graph)
    cm = core_decomposition(g)
    os.makedirs(args.out, exist_ok=True)

    write_csv(os.path.join(args.out, "coreness.csv"), ["node_id", "coreness"],
              [g.orig_ids, cm.coreness])

    feats = subgraph_features(g, cm)
    summary = {
        "schema_version": 1,
        "n": g.n,
        "m": g.m,
        "degeneracy": cm.k_max,
        "degenerate_core": [int(g.orig_ids[v]) for v in cm.degenerate_core],
        # the edge density of the degenerate core
        "core_completeness": (feats[cm.k_max].edge_density
                              if len(cm.degenerate_core) >= 2 else None),
    }
    write_atomic(os.path.join(args.out, "kcore_summary.json"),
                 json_dumps_stable(summary))
    write_csv(os.path.join(args.out, "core_features.csv"),
              ["k", *_FEATURE_FIELDS],
              [list(feats), *_feature_columns(feats.values())])
    _write_manifest(args.out, "kcore", {"graph": args.graph}, None,
                    [args.graph], started)
    return EXIT_OK


def _load_embedding_rows(path, orig_ids):
    """Rows of the embedding CSV at ``path`` in ``orig_ids`` order; a file
    with a non-finite row is refused."""
    ids, emb = load_embedding_csv(path)
    bad = np.flatnonzero(~np.isfinite(emb).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: non-finite row for node id {ids[bad[0]]}")
    lookup = {int(i): r for r, i in enumerate(ids)}
    try:
        return emb[[lookup[int(o)] for o in orig_ids]]
    except KeyError as exc:
        raise ValueError(f"{path}: missing node id {exc}") from exc


def _external_embedder(directory):
    def run(subgraph, seed, k):
        path = os.path.join(directory, f"embeddings_k{k}.csv")
        if not os.path.exists(path):
            raise FileNotFoundError(f"no external embedding file {path}")
        return _load_embedding_rows(path, subgraph.orig_ids)

    return run


def _write_share_outputs(out_dir, report, **extra):
    write_atomic(os.path.join(out_dir, "share_report.json"),
                 json_dumps_stable({**report.to_dict(), **extra}))
    recs = report.records
    write_csv(os.path.join(out_dir, "share_report.csv"),
              ["k", "emd", "delta", *_FEATURE_FIELDS],
              [[r.k for r in recs], [r.emd for r in recs],
               ["" if r.delta is None else r.delta for r in recs],
               *_feature_columns([r.features for r in recs])])


def cmd_share(args):
    started = time.time()
    if bool(args.embedder) == bool(args.external_embeddings):
        log.error("exactly one of --embedder or --external-embeddings is required")
        return EXIT_INPUT
    g = load_edge_list(args.graph)
    inputs = [args.graph]
    dataset = os.path.basename(args.graph)
    if args.embedder:
        embedder = _load_json(args.embedder, EmbedSpec)
        inputs.append(args.embedder)
    else:
        embedder = _external_embedder(args.external_embeddings)
    os.makedirs(args.out, exist_ok=True)
    dist_dir = os.path.join(args.out, "distributions")
    os.makedirs(dist_dir, exist_ok=True)

    def write_distribution(k, dist):
        write_csv(os.path.join(dist_dir, f"k{k}.csv"), ["distance"], [dist])

    partial = {}
    try:
        report = run_share(g, embedder, seed=args.seed, dataset=dataset,
                           metric=args.metric,
                           on_distribution=write_distribution)
    except ShareEmbedderError as exc:
        log.error("%s", exc)
        report = exc.partial
        partial = {"partial": True, "failed_k": exc.k}
    _write_share_outputs(args.out, report, **partial)

    config = {"graph": args.graph,
              "embedder": embedder.to_dict() if isinstance(embedder, EmbedSpec)
              else {"external": args.external_embeddings}}
    _write_manifest(args.out, "share", config, args.seed, inputs, started)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_stable(args):
    started = time.time()
    g = load_edge_list(args.graph)
    cfg = _load_json(args.config, StableConfig)
    os.makedirs(args.out, exist_ok=True)
    result = stable_train(g, cfg, args.seed)

    save_embedding_csv(os.path.join(args.out, "embeddings.csv"),
                       result.embeddings, g.orig_ids)
    save_embedding_binary(os.path.join(args.out, "embeddings.bin"),
                          result.embeddings)
    save_embedding_csv(os.path.join(args.out, "isolated_core.csv"),
                       result.isolated_core,
                       g.orig_ids[result.core_nodes])
    write_csv(os.path.join(args.out, "loss_trace.csv"),
              ["batch", "base_loss", "stability_loss"],
              [range(cfg.batches), result.base_loss, result.stability_loss])
    errors = stability_error_distribution(
        result.embeddings, result.isolated_core, result.core_nodes)
    write_csv(os.path.join(args.out, "stability_errors.csv"), ["error"],
              [errors])
    write_atomic(os.path.join(args.out, "config.json"),
                 json_dumps_stable(cfg.to_dict()))
    _write_manifest(args.out, "stable",
                    {"graph": args.graph, "config": cfg.to_dict()},
                    args.seed, [args.graph, args.config], started)
    return EXIT_OK


def cmd_linkpred(args):
    started = time.time()
    g = load_edge_list(args.graph)
    emb = _load_embedding_rows(args.embeddings, g.orig_ids)
    split = make_split(g, args.fraction, args.seed)
    scores = evaluate(emb, split)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "schema_version": 1,
        "graph": os.path.basename(args.graph),
        "algorithm": args.algorithm,
        "variant": args.variant,
        "fraction": args.fraction,
        "seed": args.seed,
        "positives": int(len(split.positives)),
        "f1": scores.f1,
        "auc": scores.auc,
        "threshold": scores.threshold,
    }
    write_atomic(os.path.join(args.out, "scores.json"),
                 json_dumps_stable(payload))
    write_csv(os.path.join(args.out, "results.csv"),
              ["graph", "algorithm", "variant", "f1", "auc"],
              [[os.path.basename(args.graph)], [args.algorithm],
               [args.variant], [scores.f1], [scores.auc]])
    _write_manifest(args.out, "linkpred",
                    {"graph": args.graph, "embeddings": args.embeddings,
                     "fraction": args.fraction},
                    args.seed, [args.graph, args.embeddings], started)
    return EXIT_OK


def cmd_regress(args):
    started = time.time()
    paths = sorted(glob.glob(args.reports))
    if not paths:
        log.error("no report files match %r", args.reports)
        return EXIT_INPUT
    reports = []
    for p in paths:
        rep = _load_json(p, ShareReport)
        if len(rep.records) < 2:
            log.warning("%s: fewer than 2 records, skipped", p)
            continue
        reports.append(rep)
    if not reports:
        log.error("no usable reports (each needs >= 2 records)")
        return EXIT_INPUT
    x, y, sources = collect_samples(reports)
    os.makedirs(args.out, exist_ok=True)

    keys = ("dataset", "algorithm", "dim", "k")
    write_csv(os.path.join(args.out, "samples.csv"),
              [*keys, "d_emd", *FEATURE_NAMES[1:]],
              [["" if s[key] is None else s[key] for s in sources]
               for key in keys] + [y, *x[:, 1:].T])

    groups = {}
    for i, s in enumerate(sources):
        dim = "" if s["dim"] is None else str(s["dim"])
        groups.setdefault((str(s["algorithm"]), dim), []).append(i)
    fits, failures = [], 0
    fit_header = ["algorithm", "dim", "samples", "feature", "coefficient",
                  "std_error", "ci_lower", "ci_upper", "r_squared"]
    fit_columns = [[] for _ in fit_header]
    for (algo, dim), rows in sorted(groups.items()):
        entry = {"algorithm": algo, "dim": dim or None, "samples": len(rows)}
        try:
            fit = ols_fit(x[rows], y[rows])
            entry["fit"] = fit.to_dict()
            nf = len(FEATURE_NAMES)
            for column, cells in zip(fit_columns, (
                    [algo] * nf, [dim] * nf, [fit.samples] * nf,
                    FEATURE_NAMES, fit.coefficients, fit.std_errors,
                    fit.ci_lower, fit.ci_upper, [fit.r_squared] * nf)):
                column.extend(cells)
        except ValueError as exc:
            entry["error"] = str(exc)
            failures += 1
        fits.append(entry)
    write_atomic(os.path.join(args.out, "fits.json"),
                 json_dumps_stable({"schema_version": 1, "fits": fits}))
    write_csv(os.path.join(args.out, "fits.csv"), fit_header, fit_columns)
    _write_manifest(args.out, "regress", {"reports": args.reports}, None,
                    paths, started)
    if failures == len(fits):
        return EXIT_NUMERIC
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_generate(args):
    started = time.time()
    spec = _load_json(args.spec, GenSpec)
    g = generate(spec, args.seed)
    os.makedirs(args.out, exist_ok=True)
    lines = [f"{int(i)} {int(j)}" for i, j in g.edges]
    write_atomic(os.path.join(args.out, "edges.txt"),
                 "\n".join(lines) + ("\n" if lines else ""))
    provenance = {"schema_version": 1, "spec": spec.to_dict(),
                  "seed": args.seed, "n": g.n, "m": g.m}
    write_atomic(os.path.join(args.out, "provenance.json"),
                 json_dumps_stable(provenance))
    _write_manifest(args.out, "generate", spec.to_dict(), args.seed,
                    [args.spec], started)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corestab",
        description="Degenerate-core embedding stability: measurement, "
                    "stabilized training, and evaluation harnesses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kcore", help="coreness, degeneracy, per-core features")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kcore)

    p = sub.add_parser("share", help="shave-and-re-embed stability report")
    p.add_argument("--graph", required=True)
    p.add_argument("--embedder", help="embedder config JSON")
    p.add_argument("--external-embeddings",
                   help="directory of embeddings_k{k}.csv files keyed by "
                   "original node id")
    p.add_argument("--metric", default="euclidean",
                   choices=("euclidean", "cosine"),
                   help="pairwise distance used for the distributions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_share)

    p = sub.add_parser("stable", help="train a core-stable embedding")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("linkpred", help="link-prediction scores for embeddings")
    p.add_argument("--graph", required=True)
    p.add_argument("--embeddings", required=True, help="embedding CSV")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", default="unknown")
    p.add_argument("--variant", default="original",
                   choices=("original", "stable"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_linkpred)

    p = sub.add_parser("regress", help="drift-vs-feature-delta regression")
    p.add_argument("--reports", required=True,
                   help="glob of share_report.json files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("generate", help="seeded synthetic graph")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        log.error("%s", exc)
        return EXIT_INPUT
    except (TrainingDivergence, EigensolverError, np.linalg.LinAlgError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
