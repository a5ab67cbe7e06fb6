"""The four benchmark workloads: input graph, command line and config.

Each workload is one corestab CLI command.  ``graph`` is the generator spec
of the measured input and ``smoke_graph`` the tiny input of the smoke mode;
``accept`` fixes the make-up a seeded draw must have (see
``inputs.make_graph``), so that every seed gives the same amount of work.
"""

import json
import os

WORKLOADS = {
    "share-line1-er": {
        "why": "share with line1 on an ER graph whose core holds most nodes: "
               "SGD, pairwise distances, EMD and distribution files dominate",
        "command": "share",
        "config": {"algorithm": "line1", "dim": 10, "batches": 30},
        "graph": ("er", {"n": 1000, "m": 5000,
                         "accept": {"shells": 6, "core": [742, 758]}}),
        "smoke_graph": ("er", {"n": 150, "m": 750}),
    },
    "share-spectral-powerlaw": {
        "why": "share with laplacian_eigenmaps on a power-law graph with a "
               "small core and many shells: eigensolver and per-shell graph work",
        "command": "share",
        "config": {"algorithm": "laplacian_eigenmaps", "dim": 10},
        # the graph (embedded at k = 0 and 1) and its 2- and 3-cores have
        # more than 1500 nodes, so corestab solves them with sparse
        # shift-invert Lanczos and the smaller k-cores densely
        "graph": ("chung_lu", {"n": 1650, "mean_degree": 14, "exponent": 2.2,
                               "max_degree": 300, "largest_component": True,
                               "accept": {"shells": 16, "core": [40, 100],
                                          "over": [1500, 3]}}),
        "smoke_graph": ("chung_lu", {"n": 120, "mean_degree": 8,
                                     "exponent": 2.5, "max_degree": 30,
                                     "largest_component": True}),
    },
    "stable-line1-core": {
        "why": "stable with the line1 base on a BA core plus pendants: "
               "O(k^2) clique augmentation, batch loop and penalty evaluation",
        "command": "stable",
        "config": {"base": "line1", "dim": 10, "batches": 16},
        "graph": ("ba_pendants", {"n_core": 800, "m_attach": 5,
                                  "pendants": 800}),
        "smoke_graph": ("ba_pendants", {"n_core": 40, "m_attach": 3,
                                        "pendants": 20}),
    },
    "kcore-powerlaw": {
        "why": "kcore on a large power-law graph: parsing, peeling, induced "
               "subgraphs and per-shell clustering, no embedding",
        "command": "kcore",
        "config": None,
        "graph": ("chung_lu", {"n": 10000, "mean_degree": 10, "exponent": 2.5,
                               "max_degree": 300,
                               "accept": {"shells": 10, "core": [300, 420]}}),
        "smoke_graph": ("chung_lu", {"n": 400, "mean_degree": 6,
                                     "exponent": 2.5, "max_degree": 40}),
    },
}


def command_argv(name, graph_path, config_path, seed, out_dir):
    """The corestab command line of one operation of workload ``name``."""
    command = WORKLOADS[name]["command"]
    argv = [command, "--graph", graph_path]
    if command == "share":
        argv += ["--embedder", config_path, "--seed", str(seed)]
    elif command == "stable":
        argv += ["--config", config_path, "--seed", str(seed)]
    return argv + ["--out", out_dir]


def write_config(name, path):
    """Write the workload's embedder/training config; None if it has none."""
    config = WORKLOADS[name]["config"]
    if config is None:
        return None
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True)
    return path

