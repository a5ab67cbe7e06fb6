"""corestab benchmark: one workload, one closed-loop run, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --smoke   # tiny, seconds

The run generates the workload's input graph from the seed, then repeats
rounds until ``--seconds`` have passed (whole rounds only).  One client runs
one command at a time; every command is ``corestab.cli.main`` in a fresh
interpreter.  Untraced (``--trace 0``), the run starts with ``SETUPS``
set-up probes, a round is one command, and the run reports the end-to-end
metrics as medians.  Traced (``--trace 1``), a round is one untraced and
one traced command, and the run reports the per-layer metrics as medians
over the traced commands.  A run makes at least ``MIN_ROUNDS`` rounds, so
every median has three samples or more.

Every command's outputs are checked against computations made apart from
corestab (see oracle.py) and must be byte-identical across the run.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (commands that exited nonzero) and ``metrics``.  The line
before it sums up the metrics with their sample counts and, for ``share``,
the shells missing from partial reports (``failed_shells``).  A failed check
exits 1 after printing it; missing corestab sources exit 2 without a result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from inputs import make_graph, write_edge_list
from oracle import (GraphOracle, check_outputs, failed_shells, output_bytes,
                    output_digests)
from workloads import WORKLOADS, command_argv, write_config

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")
MIN_ROUNDS = 3
SETUPS = 3
RUN_LIMIT_S = 170.0   # a run exits within 180 s
# one BLAS thread: two OpenBLAS threads on a shared 2-CPU host made the
# same stable command take anywhere from 2.2 s to 6.1 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class Run:
    """One benchmark run's inputs, scratch directory and child processes."""

    def __init__(self, workload, seed, smoke, run_dir):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.spec = WORKLOADS[workload]
        self.dir = run_dir
        kind, params = self.spec["smoke_graph" if smoke else "graph"]
        self.edges = make_graph(kind, params, seed)
        self.graph = os.path.join(run_dir, "graph.txt")
        write_edge_list(self.graph, self.edges)
        self.config = write_config(workload, os.path.join(run_dir, "config.json"))
        self.env = {k: v for k, v in os.environ.items()
                    if k != "COREstab_THREADS"}
        self.env.update(BLAS_THREADS)
        self.started = time.perf_counter()
        self.ops = 0
        self.reference = None   # output directory of the first good command

    def _timeout(self):
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def _spawn(self, args, log):
        with open(log, "ab") as fh:
            return subprocess.run([sys.executable, CHILD] + args, env=self.env,
                                  stdout=fh, stderr=fh, timeout=self._timeout(),
                                  check=False).returncode

    def probe(self):
        """Seconds a fresh interpreter takes to import the CLI and parse.

        The child stamps the end itself: waiting on it with a timeout polls
        every 50 ms, which would round the figure to that step.
        """
        stamp = os.path.join(self.dir, "probe.stamp")
        t0 = time.monotonic()
        rc = self._spawn(["probe", SRC, self.graph, stamp],
                         os.path.join(self.dir, "probe.log"))
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}; see probe.log")
        with open(stamp) as fh:
            return float(fh.read()) - t0

    def command(self, trace, engine_checks=False):
        """Run the workload's command once: its exit code and measurements."""
        self.ops += 1
        out = os.path.join(self.dir, f"out{self.ops}")
        job = {"src": SRC, "trace": trace, "engine_checks": engine_checks,
               "seed": self.seed,
               "argv": command_argv(self.workload, self.graph, self.config,
                                    self.seed, out),
               "result": os.path.join(self.dir, f"result{self.ops}.json")}
        job_path = os.path.join(self.dir, f"job{self.ops}.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        log = os.path.join(self.dir, f"op{self.ops}.log")
        try:
            code = self._spawn(["command", job_path], log)
        except subprocess.TimeoutExpired:
            code = "timeout"
        result = {"rc": code, "out": out, "log": log}
        if code == 0 and os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                result.update(json.load(fh))
        if code == 0:
            # digest the outputs and drop all but the first good command's,
            # so that later commands do not share the disk with their
            # write-back
            result["digests"] = output_digests(out)
            result["bytes"] = output_bytes(out)
            if self.reference is None:
                self.reference = out
            else:
                shutil.rmtree(out, ignore_errors=True)
        return result


def log_tail(path, lines=15):
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


def check_run(run, results):
    """Oracle checks on the first good output, byte identity of the rest.

    Returns the mismatches, notes for standard error and the number of
    shells missing from partial ``share`` reports (exit 4).
    """
    errors, notes, missing_shells = [], [], 0
    oracle = GraphOracle(run.edges)
    good = [r for r in results if r["rc"] == 0]
    for r in results:
        if r["rc"] != 0:
            notes.append(f"command failed (exit {r['rc']}):\n{log_tail(r['log'])}")
            if r["rc"] == 4 and run.spec["command"] == "share":
                missing_shells += failed_shells(r["out"], oracle)
    if good:
        reference = good[0]
        errors += check_outputs(run.spec["command"], reference["out"], oracle,
                                run.spec["config"])
        for r in good[1:]:
            if r["digests"] != reference["digests"]:
                errors.append(f"outputs of {r['out']} differ from "
                              f"{reference['out']} (same inputs and seed)")
    for r in good:
        errors += r.get("engine_errors", [])
        for name in r.get("missing", []):
            notes.append(f"not called (absent in this corestab): {name}")
    return errors, notes, missing_shells


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds, trace):
    """Set-up probes (untraced only), then closed-loop rounds until
    ``seconds`` pass and ``MIN_ROUNDS`` are done (one probe and one round
    in the smoke mode); results and set-up times.

    The probes come first, not one a round, so that the commands fill the
    rest of the run: more commands make the run's medians steadier.
    """
    run.probe()   # warm-up: compiles bytecode and fills the page cache
    deadline = time.perf_counter() + seconds
    setups = [] if trace else [run.probe()
                               for _ in range(1 if run.smoke else SETUPS)]
    untraced, traced = [], []
    rounds = 1 if run.smoke else MIN_ROUNDS
    while True:
        untraced.append(run.command(trace=False))
        if trace:
            traced.append(run.command(trace=True, engine_checks=not traced))
        rounds -= 1
        if rounds <= 0 and (run.smoke or time.perf_counter() >= deadline):
            break
    return untraced, traced, setups


def end_to_end(untraced, setups):
    good = [r for r in untraced if r["rc"] == 0]
    metrics = {
        "wall_s": median([r["wall_s"] for r in good]),
        "cpu_s": median([r["cpu_s"] for r in good]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
    }
    counts = {"wall_s": len(good), "cpu_s": len(good), "setup_s": len(setups),
              "peak_rss_mb": len(good)}
    return metrics, counts


def per_layer(untraced, traced):
    good = [r for r in traced if r["rc"] == 0]
    metrics = {}
    for name in good[0]["layers"]:
        metrics[name] = median([r["layers"][name] for r in good])
    metrics["cli.output_bytes"] = good[0]["bytes"]
    plain = [r["wall_s"] for r in untraced if r["rc"] == 0]
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in good])
                                   - median(plain))
    counts = {name: len(good) for name in metrics}
    return metrics, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description="corestab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one round: every path and check")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corestab", "cli.py")):
        print(f"bench: no corestab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        run = Run(args.workload, args.seed, args.smoke, run_dir)
        untraced, traced, setups = measure(run, args.seconds, bool(args.trace))
        errors, notes, missing_shells = check_run(run, untraced + traced)
        for note in notes:
            print(f"bench: {note}", file=sys.stderr)
        print("bench: command wall_s " + " ".join(
            f"{r['wall_s']:.3f}{'T' if 'spans' in r else ''}"
            for r in untraced + traced if r["rc"] == 0)
            + " setup_s " + " ".join(f"{s:.3f}" for s in setups),
            file=sys.stderr)
        results = untraced + traced
        measured = traced if args.trace else untraced
        if not any(r["rc"] == 0 for r in measured):
            print("bench: every measured command failed", file=sys.stderr)
            return 1
        if args.trace:
            metrics, counts = per_layer(untraced, traced)
        else:
            metrics, counts = end_to_end(untraced, setups)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in errors:
        print(f"bench: CHECK FAILED: {error}", file=sys.stderr)
    summary = ", ".join(f"{k}={v:.6g} (n={counts[k]})"
                        for k, v in metrics.items())
    if run.spec["command"] == "share":
        summary += f", failed_shells={missing_shells}"
    print(f"{args.workload} seed={args.seed}: {summary}")
    units = END_TO_END if not args.trace else {k: per_layer_unit(k)
                                               for k in metrics}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(r["rc"] != 0 for r in results),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
