"""One benchmark operation in a fresh interpreter.

    python3 bench/child.py probe SRC GRAPH STAMP   # import corestab.cli, parse GRAPH
    python3 bench/child.py command JOB             # run corestab.cli.main

A command job (JSON) names the corestab sources, the argv, whether to trace
and where to write the result: the command's exit code, wall and CPU time
around ``main`` and the process's peak resident memory, plus, when traced,
the spans, the per-layer figures and the engine check findings.  A probe
writes ``time.monotonic()`` to STAMP once the graph is parsed; the clock is
system-wide, so the parent subtracts its own reading taken before the start.
"""

import json
import os
import resource
import sys
import time


def _import_cli(src):
    sys.path.insert(0, src)
    import corestab.cli
    where = os.path.realpath(corestab.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"corestab.cli came from {where}, not {src}")
    return corestab.cli


def probe(src, graph, stamp):
    _import_cli(src)
    from corestab.graph import load_edge_list
    load_edge_list(graph)
    done = time.monotonic()
    with open(stamp, "w") as fh:
        fh.write(repr(done))


def command(job):
    cli = _import_cli(job["src"])
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    rc = cli.main(job["argv"])
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import layer_metrics
        spans = tracer.records()
        result["spans"] = spans
        result["missing"] = tracer.missing
        result["layers"] = layer_metrics(spans, wall)
        if job["engine_checks"]:
            from oracle import check_engines
            result["engine_errors"] = check_engines(tracer.engine_calls,
                                                    job["seed"])
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])


def main():
    if sys.argv[1] == "probe":
        probe(sys.argv[2], sys.argv[3], sys.argv[4])
    else:
        with open(sys.argv[2]) as fh:
            command(json.load(fh))


if __name__ == "__main__":
    main()
