import csv
import glob
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corestab
from corestab.cli import main
from corestab.embed import save_embedding_csv

from conftest import (KARATE_EDGES, ba_with_pendants, complete_graph,
                      desk_graph, kcore_features_oracle, read_json,
                      read_text, write_csv_oracle)


def write_graph(tmp_path, name, edges):
    p = tmp_path / name
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(p)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_outputs(out_dir, skip=("manifest.json",)):
    found = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            if f in skip:
                continue
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = fh.read()
    return found


TRIANGLE = [(0, 1), (1, 2), (2, 0)]


class TestKcore:
    def test_triangle(self, tmp_path):
        graph = write_graph(tmp_path, "tri.txt", TRIANGLE)
        out = str(tmp_path / "out")
        assert main(["kcore", "--graph", graph, "--out", out]) == 0
        rows = read_text(out, "coreness.csv").splitlines()
        assert rows[0] == "node_id,coreness"
        assert all(r.endswith(",2") for r in rows[1:])
        summary = read_json(out, "kcore_summary.json")
        assert summary["degeneracy"] == 2
        assert summary["core_completeness"] == 1.0

    def test_karate_degeneracy(self, tmp_path, karate_file):
        out = str(tmp_path / "out")
        assert main(["kcore", "--graph", karate_file, "--out", out]) == 0
        summary = read_json(out, "kcore_summary.json")
        assert summary["degeneracy"] == 4

    def test_empty_graph_completeness_null(self, tmp_path):
        # a core of fewer than 2 nodes has no pairs, so no completeness
        graph = tmp_path / "empty.txt"
        graph.write_text("# no edges\n")
        out = str(tmp_path / "out")
        assert main(["kcore", "--graph", str(graph), "--out", out]) == 0
        summary = read_json(out, "kcore_summary.json")
        assert summary["degenerate_core"] == []
        assert summary["core_completeness"] is None

    def test_missing_graph_exit_2(self, tmp_path):
        assert main(["kcore", "--graph", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        assert main(["kcore", "--graph", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_id_above_int64_exit_2(self, tmp_path, caplog):
        bad = tmp_path / "big.txt"
        bad.write_text("0 1\n1 99999999999999999999\n")
        assert main(["kcore", "--graph", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "big.txt:2: node id above 2^63 - 1" in caplog.text

    @pytest.mark.parametrize("name", ["karate", "ba_pendants"])
    def test_core_features_match_per_k_oracle(self, tmp_path, karate, name):
        from corestab.graph import core_decomposition
        g = karate if name == "karate" else ba_with_pendants(60, 3, 25, 4)
        graph = write_graph(tmp_path, "g.txt", g.edges.tolist())
        out = str(tmp_path / "out")
        assert main(["kcore", "--graph", graph, "--out", out]) == 0
        with open(os.path.join(out, "core_features.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        cm = core_decomposition(g)
        ks = [0] + sorted(set(cm.coreness.tolist()) - {0})
        assert [int(r["k"]) for r in rows] == ks
        for r in rows:
            want = kcore_features_oracle(g, cm, int(r["k"]))
            assert int(r["size"]) == want.size
            for col in ("edge_density", "avg_clustering_coefficient",
                        "transitivity"):
                assert float(r[col]) == getattr(want, col)

    def test_core_spans_graph_two_rows(self, tmp_path):
        graph = write_graph(tmp_path, "k5.txt",
                            complete_graph(5).edges.tolist())
        out = str(tmp_path / "out")
        assert main(["kcore", "--graph", graph, "--out", out]) == 0
        rows = read_text(out, "core_features.csv").splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "4"]
        assert rows[1].split(",")[1:] == rows[2].split(",")[1:]

    def test_manifest_written(self, tmp_path):
        graph = write_graph(tmp_path, "tri.txt", TRIANGLE)
        out = str(tmp_path / "out")
        main(["kcore", "--graph", graph, "--out", out])
        manifest = read_json(out, "manifest.json")
        assert manifest["command"] == "kcore"
        assert graph in manifest["input_hashes"]

    @pytest.mark.parametrize("data,code", [
        ("0\u30001\n1\u30002\n2\u30000\n".encode("utf-8"), 0),
        (b"\xff0 1\n", 2)], ids=["ideographic_spaces", "undecodable"])
    def test_graph_read_as_utf8_under_c_locale(self, tmp_path, data, code):
        # the C locale without UTF-8 mode makes ASCII the default encoding
        graph = tmp_path / "g.txt"
        graph.write_bytes(data)
        src = os.path.dirname(os.path.dirname(corestab.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0", PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "corestab.cli", "kcore", "--graph",
             str(graph), "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, errors="replace")
        assert done.returncode == code, done.stderr
        if code:
            assert f"{graph}: 'utf-8' codec can't decode byte 0xff" \
                in done.stderr
        else:
            assert read_json(tmp_path / "o", "kcore_summary.json")["m"] == 3


class TestShare:
    def test_desk_run_and_rerun_identical(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        spec = write_json(tmp_path, "spec.json",
                          {"algorithm": "line1", "dim": 3, "batches": 10})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["share", "--graph", graph, "--embedder", spec,
                         "--seed", "5", "--out", out]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)
        report = read_json(out_a, "share_report.json")
        assert report["seed"] == 5 and "seed" not in report["embedder"]
        assert report["records"][0]["k"] == 0
        assert report["records"][0]["emd"] == 0.0
        assert os.path.exists(os.path.join(out_a, "distributions", "k0.csv"))

    def test_core_spans_graph_one_record(self, tmp_path, caplog):
        graph = write_graph(tmp_path, "k6.txt",
                            complete_graph(6).edges.tolist())
        spec = write_json(tmp_path, "spec.json",
                          {"algorithm": "line1", "dim": 2, "batches": 5})
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--embedder", spec,
                     "--seed", "1", "--out", out]) == 0
        records = read_json(out, "share_report.json")[
            "records"]
        assert [(r["k"], r["size"], r["emd"]) for r in records] == \
            [(0, 6, 0.0)]
        # regress skips such a report, and has nothing left to fit
        with caplog.at_level("WARNING"):
            assert main(["regress", "--reports",
                         os.path.join(out, "share_report.json"),
                         "--out", str(tmp_path / "r")]) == 2
        assert "share_report.json: fewer than 2 records, skipped" in \
            caplog.text
        assert "no usable reports" in caplog.text

    def test_report_csv_matches_json(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        spec = write_json(tmp_path, "spec.json",
                          {"algorithm": "line1", "dim": 3, "batches": 5})
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--embedder", spec,
                     "--seed", "3", "--out", out]) == 0
        records = read_json(out, "share_report.json")[
            "records"]
        with open(os.path.join(out, "share_report.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        names = ["k", "emd", "delta", "size", "edge_density",
                 "avg_clustering_coefficient", "transitivity"]
        assert rows[0] == names
        assert len(rows) == len(records) + 1 >= 3
        for row, rec in zip(rows[1:], records):
            assert row == ["" if rec[name] is None
                           else repr(rec[name]) for name in names]
        assert rows[1][2] == ""  # the baseline has no delta

    def test_requires_exactly_one_embedder_source(self, tmp_path):
        graph = write_graph(tmp_path, "tri.txt", TRIANGLE)
        assert main(["share", "--graph", graph,
                     "--out", str(tmp_path / "o")]) == 2

    def test_cosine_metric_recorded(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        spec = write_json(tmp_path, "spec.json",
                          {"algorithm": "line1", "dim": 3, "batches": 5})
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--embedder", spec,
                     "--metric", "cosine", "--out", out]) == 0
        report = read_json(out, "share_report.json")
        assert report["metric"] == "cosine"

    def test_external_embeddings(self, tmp_path):
        from corestab.graph import load_edge_list
        graph = write_graph(tmp_path, "desk.txt", [
            (0, 1), (0, 2), (1, 2), (0, 3)])
        g = load_edge_list(graph)
        ext = tmp_path / "ext"
        ext.mkdir()
        rng = np.random.default_rng(0)
        # triangle core (k=2) over nodes 0,1,2; shells are 0,1,2
        for k, nodes in ((0, [0, 1, 2, 3]), (1, [0, 1, 2, 3]), (2, [0, 1, 2])):
            save_embedding_csv(ext / f"embeddings_k{k}.csv",
                               rng.normal(size=(len(nodes), 2)), nodes)
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--external-embeddings",
                     str(ext), "--out", out]) == 0
        report = read_json(out, "share_report.json")
        assert [r["k"] for r in report["records"]] == [0, 1, 2]

    def test_external_missing_file_partial_exit_4(self, tmp_path):
        graph = write_graph(tmp_path, "g.txt", [(0, 1), (0, 2), (1, 2), (0, 3)])
        ext = tmp_path / "ext"
        ext.mkdir()
        save_embedding_csv(ext / "embeddings_k0.csv",
                           np.zeros((4, 2)), [0, 1, 2, 3])
        save_embedding_csv(ext / "embeddings_k1.csv",
                           np.ones((4, 2)), [0, 1, 2, 3])
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--external-embeddings",
                     str(ext), "--out", out]) == 4
        report = read_json(out, "share_report.json")
        assert report["partial"] is True
        assert report["failed_k"] == 2
        written = sorted(os.listdir(os.path.join(out, "distributions")))
        assert written == ["k0.csv", "k1.csv"]

    def test_cosine_zero_row_partial_exit_4(self, tmp_path, caplog):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        ext = tmp_path / "ext"
        ext.mkdir()
        rng = np.random.default_rng(0)
        # shells 0, 1 and 4; the k=4 core embedding has one all-zero row,
        # whose cosine distances are undefined
        for k, n in ((0, 14), (1, 14), (4, 10)):
            emb = rng.normal(size=(n, 2))
            if k == 4:
                emb[3] = 0.0
            save_embedding_csv(ext / f"embeddings_k{k}.csv", emb, range(n))
        out = str(tmp_path / "o")
        with caplog.at_level("ERROR"):
            code = main(["share", "--graph", graph, "--external-embeddings",
                         str(ext), "--metric", "cosine", "--out", out])
        assert code == 4
        failed = [r.getMessage() for r in caplog.records
                  if "non-finite" in r.getMessage()]
        assert len(failed) == 1 and failed[0].count("k=4") == 1

        def reject(name):
            raise ValueError(f"{name} is not valid JSON")

        report = json.loads(read_text(out, "share_report.json"),
                            parse_constant=reject)
        assert report["failed_k"] == 4
        assert [r["k"] for r in report["records"]] == [0, 1]
        assert "nan" not in read_text(out, "share_report.csv").lower()
        written = sorted(os.listdir(os.path.join(out, "distributions")))
        assert written == ["k0.csv", "k1.csv"]

    def test_external_inf_row_partial_exit_4(self, tmp_path, caplog):
        graph = write_graph(tmp_path, "g.txt", [(0, 1), (0, 2), (1, 2), (0, 3)])
        ext = tmp_path / "ext"
        ext.mkdir()
        emb = np.ones((4, 2))
        save_embedding_csv(ext / "embeddings_k0.csv", emb, [0, 1, 2, 3])
        emb[2, 1] = np.inf
        save_embedding_csv(ext / "embeddings_k1.csv", emb, [0, 1, 2, 3])
        with caplog.at_level("ERROR"):
            code = main(["share", "--graph", graph, "--external-embeddings",
                         str(ext), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "embeddings_k1.csv: non-finite row for node id 2" in caplog.text

    def test_external_missing_file_logs_cause(self, tmp_path, caplog):
        graph = write_graph(tmp_path, "g.txt", [(0, 1), (0, 2), (1, 2), (0, 3)])
        ext = tmp_path / "ext"
        ext.mkdir()
        save_embedding_csv(ext / "embeddings_k0.csv",
                           np.zeros((4, 2)), [0, 1, 2, 3])
        with caplog.at_level("ERROR"):
            code = main(["share", "--graph", graph, "--external-embeddings",
                         str(ext), "--out", str(tmp_path / "o")])
        assert code == 4
        failed = [r.getMessage() for r in caplog.records
                  if "shell k=1 failed" in r.getMessage()]
        assert failed and "embeddings_k1.csv" in failed[0]

    @pytest.mark.parametrize("row,cause", [
        ("4,abc,0.5", ":6: could not convert string to float: 'abc'"),
        ("0,0.5,0.5", ":6: node id 0 repeats line 2")])
    def test_external_bad_row_names_file_and_line(self, tmp_path, caplog,
                                                  row, cause):
        graph = write_graph(tmp_path, "g.txt", [(0, 1), (0, 2), (1, 2), (0, 3)])
        ext = tmp_path / "ext"
        ext.mkdir()
        rows = ["node_id,e0,e1", "0,1.0,0.0", "1,0.0,1.0", "2,0.5,0.0",
                "3,1.0,1.0", row]
        path = ext / "embeddings_k0.csv"
        path.write_text("\n".join(rows) + "\n")
        with caplog.at_level("ERROR"):
            assert main(["share", "--graph", graph, "--external-embeddings",
                         str(ext), "--out", str(tmp_path / "o")]) == 4
        assert f"shell k=0 failed: {path}{cause}" in caplog.text

    def test_external_header_only_file_partial_exit_4(self, tmp_path, caplog):
        graph = write_graph(tmp_path, "g.txt", [(0, 1), (0, 2), (1, 2), (0, 3)])
        ext = tmp_path / "ext"
        ext.mkdir()
        save_embedding_csv(ext / "embeddings_k0.csv",
                           np.zeros((4, 2)), [0, 1, 2, 3])
        (ext / "embeddings_k1.csv").write_text("node_id,e0\n")
        out = str(tmp_path / "o")
        with caplog.at_level("ERROR"):
            code = main(["share", "--graph", graph, "--external-embeddings",
                         str(ext), "--out", out])
        assert code == 4
        assert "embeddings_k1.csv: no embedding rows" in caplog.text
        report = read_json(out, "share_report.json")
        assert report["partial"] is True and report["failed_k"] == 1
        assert [r["k"] for r in report["records"]] == [0]


    def test_self_loop_only_node_spectral_exit_0(self, tmp_path):
        clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        graph = write_graph(tmp_path, "g.txt", clique + [(7, 7)])
        spec = write_json(tmp_path, "spec.json",
                          {"algorithm": "laplacian_eigenmaps", "dim": 2})
        out = str(tmp_path / "o")
        assert main(["share", "--graph", graph, "--embedder", spec,
                     "--out", out]) == 0
        report = read_json(out, "share_report.json")
        assert report["records"][0]["size"] == 4


def test_cli_import_does_not_load_scipy_stats():
    src = os.path.dirname(os.path.dirname(corestab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, corestab.cli; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0


class TestStable:
    def test_desk_outputs(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "line1", "dim": 3, "batches": 8})
        out = str(tmp_path / "out")
        assert main(["stable", "--graph", graph, "--config", cfg,
                     "--seed", "3", "--out", out]) == 0
        echo = read_json(out, "config.json")
        assert echo["alpha"] == 10.0  # base-specific default
        trace = read_text(out, "loss_trace.csv").splitlines()
        assert trace[0] == "batch,base_loss,stability_loss"
        assert len(trace) == 1 + 8
        assert os.path.exists(os.path.join(out, "embeddings.csv"))
        assert os.path.exists(os.path.join(out, "embeddings.bin"))
        assert os.path.exists(os.path.join(out, "stability_errors.csv"))

    def test_divergence_exit_3(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "laplacian_eigenmaps", "dim": 3,
                          "batches": 40, "lr": 1e9, "alpha": 1e9})
        assert main(["stable", "--graph", graph, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3

    def test_inaccurate_eigensolve_exit_3(self, tmp_path, monkeypatch):
        import corestab.embed as em
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "laplacian_eigenmaps", "dim": 3,
                          "batches": 5})
        real, calls = em.eigsh, []

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            calls.append(vecs.shape)
            return vals, vecs * 1.01

        monkeypatch.setattr(em, "eigsh", perturbed)
        monkeypatch.setattr(em, "_DENSE_MAX_N", 0)  # the desk graph is small
        assert main(["stable", "--graph", graph, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        assert calls

    def test_bad_config_exit_2(self, tmp_path):
        graph = write_graph(tmp_path, "tri.txt", TRIANGLE)
        cfg = write_json(tmp_path, "cfg.json", {"base": "line1", "junk": 1})
        assert main(["stable", "--graph", graph, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_alpha_zero_warns(self, tmp_path, caplog):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "line1", "dim": 3, "batches": 5,
                          "alpha": 0.0})
        with caplog.at_level("WARNING"):
            assert main(["stable", "--graph", graph, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        assert any("alpha=0" in r.message for r in caplog.records)

    def test_saturated_run_warns_exit_0(self, tmp_path, caplog):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "laplacian_eigenmaps", "dim": 3,
                          "batches": 2, "alpha": 1e6})
        with caplog.at_level("WARNING"):
            assert main(["stable", "--graph", graph, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 0
        assert "training saturated" in caplog.text

    def test_rerun_identical(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "line1", "dim": 3, "batches": 6})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["stable", "--graph", graph, "--config", cfg,
                         "--seed", "9", "--out", out]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)

    def test_seed_option_selects_the_run(self, tmp_path):
        g = desk_graph()
        graph = write_graph(tmp_path, "desk.txt",
                            [tuple(e) for e in g.edges.tolist()])
        cfg = write_json(tmp_path, "cfg.json",
                         {"base": "line1", "dim": 3, "batches": 6})
        outs = {seed: str(tmp_path / seed) for seed in ("5", "9")}
        for seed, out in outs.items():
            assert main(["stable", "--graph", graph, "--config", cfg,
                         "--seed", seed, "--out", out]) == 0
        assert read_text(outs["5"], "embeddings.csv") != \
            read_text(outs["9"], "embeddings.csv")
        echo = read_json(outs["5"], "config.json")
        assert "seed" not in echo and echo == read_json(outs["9"],
                                                        "config.json")
        assert read_json(outs["9"], "manifest.json")["seed"] == 9


@pytest.mark.parametrize("command,flag,config", [
    ("share", "--embedder", {"algorithm": "line1", "dim": 2, "seed": 1}),
    ("stable", "--config", {"base": "line1", "seed": 1}),
    ("generate", "--spec", {"model": "er", "n": 10, "p": 0.5, "seed": 1}),
])
def test_seed_key_in_config_file_exit_2(tmp_path, caplog, command, flag,
                                        config):
    # the seed comes from --seed alone; in a file it is an unknown key
    argv = [command, flag, write_json(tmp_path, "cfg.json", config),
            "--seed", "5", "--out", str(tmp_path / "o")]
    if command != "generate":
        argv += ["--graph", write_graph(tmp_path, "tri.txt", TRIANGLE)]
    with caplog.at_level("ERROR"):
        assert main(argv) == 2
    assert any("unknown" in r.getMessage() and "'seed'" in r.getMessage()
               for r in caplog.records)


def run_with_config_text(tmp_path, command, flag, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, flag, str(path), "--out", str(tmp_path / "o")]
    if command != "generate":
        argv += ["--graph", write_graph(tmp_path, "tri.txt", TRIANGLE)]
    return main(argv), str(path)


def assert_config_refused(tmp_path, caplog, command, flag, text, cause):
    with caplog.at_level("ERROR"):
        code, path = run_with_config_text(tmp_path, command, flag, text)
    # the message opens with the file, and nothing is written
    assert code == 2
    assert any(r.getMessage().startswith(f"{path}: {cause}")
               for r in caplog.records)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,cause", [
    ('{"algorithm": "line1", "dim": "4"}',
     "key 'dim' must be an integer, got '4'"),
    ('{"algorithm": "line1", "dim": 2, "batches": true}',
     "key 'batches' must be an integer, got True"),
    ('{"algorithm": "line1", "dim": 2.0}',
     "key 'dim' must be an integer, got 2.0"),
    ('{"algorithm": "line1", "dim": 2, "lr": NaN}',
     "key 'lr' must be a finite number, got nan"),
    ('{"algorithm": 1, "dim": 2}', "key 'algorithm' must be a string, got 1"),
    ('{"algorithm": "line1"}', "missing key 'dim'"),
    ("5", "expected a JSON object, got int"),
])
def test_embedder_config_types_exit_2(tmp_path, caplog, text, cause):
    assert_config_refused(tmp_path, caplog, "share", "--embedder", text,
                          cause)


@pytest.mark.parametrize("text,cause", [
    ('{"base": "line1", "batches": 2.5}',
     "key 'batches' must be an integer, got 2.5"),
    ('{"base": "line1", "batches": true}',
     "key 'batches' must be an integer, got True"),
    ('{"base": "line1", "lr": NaN}',
     "key 'lr' must be a finite number, got nan"),
    ('{"base": "line1", "alpha": Infinity}',
     "key 'alpha' must be a finite number or null, got inf"),
    ('{"base": "line1", "gamma": false}',
     "key 'gamma' must be a finite number, got False"),
    ('["line1"]', "expected a JSON object, got list"),
    ('{"base": "line1", "negatives": 0}', "negatives must be >= 1"),
    ('{"base": "line1", "negatives": -3}', "negatives must be >= 1"),
])
def test_stable_config_types_exit_2(tmp_path, caplog, text, cause):
    assert_config_refused(tmp_path, caplog, "stable", "--config", text, cause)


@pytest.mark.parametrize("text,cause", [
    ('{"model": "er", "n": "5", "p": 0.5}',
     "key 'n' must be an integer, got '5'"),
    ('{"model": "er", "n": 5, "p": true}',
     "key 'p' must be a finite number or null, got True"),
    ('{"model": "ba", "n": 5, "m_attach": 2.0}',
     "key 'm_attach' must be an integer or null, got 2.0"),
    ('{"model": null, "n": 5, "p": 0.5}',
     "key 'model' must be a string, got None"),
    ("5", "expected a JSON object, got int"),
])
def test_generator_spec_types_exit_2(tmp_path, caplog, text, cause):
    assert_config_refused(tmp_path, caplog, "generate", "--spec", text, cause)


@pytest.mark.parametrize("command,flag,text", [
    # an integer is a number; null stands for an Optional field's default
    ("stable", "--config", '{"base": "line1", "dim": 2, "batches": 2, '
     '"alpha": null, "gamma": 1}'),
    ("generate", "--spec", '{"model": "er", "n": 6, "p": 1, '
     '"m_attach": null}'),
])
def test_config_ints_as_floats_and_nulls_accepted(tmp_path, command, flag,
                                                  text):
    assert run_with_config_text(tmp_path, command, flag, text)[0] == 0


@pytest.mark.parametrize("command,flag,config", [
    ("share", "--embedder", {"algorithm": "line1", "dim": 4, "batches": 3}),
    ("stable", "--config", {"base": "line1", "dim": 4, "batches": 3})])
def test_outputs_match_oracle_writer(tmp_path, monkeypatch, command, flag,
                                     config):
    # a 200-node core: 19 900 core pairs, more than one piece of write_csv
    g = ba_with_pendants(200, 3, 60, seed=4)
    graph = write_graph(tmp_path, "g.txt", g.edges.tolist())
    cfg = write_json(tmp_path, "cfg.json", config)
    argv = [command, "--graph", graph, flag, cfg, "--seed", "2", "--out"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(argv + [out_a]) == 0
    monkeypatch.setattr("corestab.cli.write_csv", write_csv_oracle)
    monkeypatch.setattr("corestab.embed.write_csv", write_csv_oracle)
    assert main(argv + [out_b]) == 0
    written = read_outputs(out_a)
    assert written == read_outputs(out_b)
    csvs = [name for name in written if name.endswith(".csv")]
    assert len(csvs) >= 4
    rows = max(written[name].count(b"\n") for name in csvs)
    assert rows > 16384


class TestLinkpred:
    def test_planted_perfect_scores(self, tmp_path):
        # two disjoint cliques: every edge is intra-cluster, every non-edge
        # crosses clusters, so orthogonal cluster embeddings are an oracle
        edges = [(i, j) for a in (0, 6) for i in range(a, a + 6)
                 for j in range(i + 1, a + 6)]
        graph = write_graph(tmp_path, "cliques.txt", edges)
        emb = np.array([[1.0, 0.0]] * 6 + [[0.0, 1.0]] * 6)
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, emb, np.arange(12))
        out = str(tmp_path / "out")
        code = main(["linkpred", "--graph", graph,
                     "--embeddings", emb_path, "--fraction", "0.1",
                     "--seed", "1", "--algorithm", "oracle",
                     "--out", out])
        assert code == 0
        scores = read_json(out, "scores.json")
        assert scores["f1"] == 1.0
        assert scores["auc"] == 1.0
        rows = read_text(out, "results.csv").splitlines()
        assert rows[0] == "graph,algorithm,variant,f1,auc"
        assert rows[1].startswith("cliques.txt,oracle,original")

    def test_text_cells_with_commas_quoted(self, tmp_path):
        # a graph file name and an --algorithm label that hold commas
        graph = write_graph(tmp_path, "a,b.txt", KARATE_EDGES)
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, np.random.default_rng(0).normal(
            size=(34, 2)), range(1, 35))
        out = str(tmp_path / "out")
        assert main(["linkpred", "--graph", graph, "--embeddings", emb_path,
                     "--algorithm", 'line1,v2 "b"', "--out", out]) == 0
        with open(os.path.join(out, "results.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["graph", "algorithm", "variant", "f1", "auc"]
        assert rows[1][:3] == ["a,b.txt", 'line1,v2 "b"', "original"]
        assert len(rows[1]) == 5

    def test_rerun_identical(self, tmp_path, karate_file):
        from corestab.graph import load_edge_list
        karate = load_edge_list(karate_file)
        rng = np.random.default_rng(0)
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, rng.normal(size=(karate.n, 4)),
                           karate.orig_ids)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["linkpred", "--graph", karate_file,
                         "--embeddings", emb_path, "--seed", "7",
                         "--out", out]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)

    def test_missing_node_exit_2(self, tmp_path, karate_file):
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, np.zeros((3, 2)), [1, 2, 3])
        assert main(["linkpred", "--graph", karate_file,
                     "--embeddings", emb_path,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_node_names_file_and_id(self, tmp_path, karate_file,
                                            caplog):
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, np.zeros((33, 2)), range(1, 34))
        with caplog.at_level("ERROR"):
            assert main(["linkpred", "--graph", karate_file,
                         "--embeddings", emb_path,
                         "--out", str(tmp_path / "o")]) == 2
        assert f"{emb_path}: missing node id 34" in caplog.text


    def test_inf_row_exit_2(self, tmp_path, karate_file, caplog):
        emb = np.ones((34, 2))
        emb[4, 0] = -np.inf
        emb_path = str(tmp_path / "emb.csv")
        save_embedding_csv(emb_path, emb, range(1, 35))
        assert "-inf" in read_text(emb_path)
        with caplog.at_level("ERROR"):
            assert main(["linkpred", "--graph", karate_file,
                         "--embeddings", emb_path,
                         "--out", str(tmp_path / "o")]) == 2
        assert f"{emb_path}: non-finite row for node id 5" in caplog.text

    @pytest.mark.parametrize("text,cause", [
        ("node_id,e0\n", "no embedding rows"),
        ("node_id\n1\n2\n", "no embedding columns")])
    def test_header_only_file_exit_2(self, tmp_path, karate_file, caplog,
                                     text, cause):
        emb_path = tmp_path / "emb.csv"
        emb_path.write_text(text)
        with caplog.at_level("ERROR"):
            assert main(["linkpred", "--graph", karate_file,
                         "--embeddings", str(emb_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"{emb_path}: {cause}" in caplog.text

    @pytest.mark.parametrize("fault,cause", [
        ({0: "id,e0"}, ": missing node_id header"),
        ({3: "", 4: "4"}, ":5: expected 2 columns"),
        ({6: "6,abc"}, ":7: could not convert string to float: 'abc'"),
        ({2: "x,0.5"}, ":3: non-integer node id"),
        ({35: "1,0.25"}, ":36: node id 1 repeats line 2")],
        ids=["header", "short_row_after_blank", "cell", "id", "repeated_id"])
    def test_malformed_row_names_file_and_line(self, tmp_path, karate_file,
                                               caplog, fault, cause):
        # a valid file for all 34 karate ids, with one line changed or added
        lines = ["node_id,e0", *(f"{i},0.5" for i in range(1, 35))]
        for ln, text in fault.items():
            lines[ln:ln + 1] = [text]
        emb_path = tmp_path / "emb.csv"
        emb_path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("ERROR"):
            assert main(["linkpred", "--graph", karate_file,
                         "--embeddings", str(emb_path),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"{emb_path}{cause}" in caplog.text


class TestRegress:
    def _write_report(self, tmp_path, name, nrec, algorithm="line1", dim=10,
                      planted_coef=None, rng=None):
        records = [{"k": 0, "emd": 0.0, "delta": None, "size": 50,
                    "edge_density": 0.1, "avg_clustering_coefficient": 0.1,
                    "transitivity": 0.1}]
        emd = 0.0
        size, dens, clust, trans = 50, 0.1, 0.1, 0.1
        for k in range(1, nrec):
            d_dens = float(rng.uniform(0, 0.05)) if rng is not None else 0.01
            d_size = -int(rng.integers(1, 4)) if rng is not None else -1
            d_clust = float(rng.uniform(-0.02, 0.02)) if rng is not None else 0.0
            d_trans = float(rng.uniform(-0.02, 0.02)) if rng is not None else 0.0
            delta = (planted_coef * d_dens if planted_coef is not None
                     else 0.01 * k)
            emd += delta
            size += d_size
            dens += d_dens
            clust += d_clust
            trans += d_trans
            records.append({"k": k, "emd": emd, "delta": delta,
                            "size": size, "edge_density": dens,
                            "avg_clustering_coefficient": clust,
                            "transitivity": trans})
        payload = {"schema_version": 1, "dataset": name, "seed": 0,
                   "metric": "euclidean",
                   "embedder": {"algorithm": algorithm, "dim": dim},
                   "records": records}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_single_short_report_fit_refused(self, tmp_path):
        self._write_report(tmp_path, "tiny", 2)
        out = str(tmp_path / "out")
        code = main(["regress", "--reports", str(tmp_path / "*.json"),
                     "--out", out])
        fits = read_json(out, "fits.json")
        assert code == 3  # every combination failed
        assert "error" in fits["fits"][0]
        assert read_text(out, "fits.csv") == (
            "algorithm,dim,samples,feature,coefficient,std_error,"
            "ci_lower,ci_upper,r_squared\n")

    def test_planted_recovery(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(4):
            self._write_report(tmp_path, f"g{i}", 6, planted_coef=2.0,
                               rng=rng)
        out = str(tmp_path / "out")
        assert main(["regress", "--reports", str(tmp_path / "*.json"),
                     "--out", out]) == 0
        fits = read_json(out, "fits.json")
        fit = fits["fits"][0]["fit"]
        density_idx = fit["feature_names"].index("d_edge_density")
        assert abs(fit["coefficients"][density_idx] - 2.0) < 0.2
        rows = read_text(out, "fits.csv").splitlines()
        assert rows[0].startswith("algorithm,dim,samples,feature")
        assert len(rows) == 1 + 5  # one row per coefficient

    def test_manifest_hashes_every_report(self, tmp_path):
        # the README's usage: one share_report.json per run directory
        for i, run in enumerate("abc"):
            (tmp_path / run).mkdir()
            self._write_report(tmp_path / run, "share_report", 5,
                               rng=np.random.default_rng(i))
        pattern = str(tmp_path / "*" / "share_report.json")
        out = str(tmp_path / "out")
        assert main(["regress", "--reports", pattern, "--out", out]) == 0
        hashes = read_json(out, "manifest.json")["input_hashes"]
        paths = sorted(glob.glob(pattern))
        assert len(paths) == 3
        assert hashes == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                          for p in paths}

    def test_no_reports_exit_2(self, tmp_path):
        assert main(["regress", "--reports", str(tmp_path / "*.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_samples_csv_written(self, tmp_path):
        rng = np.random.default_rng(1)
        self._write_report(tmp_path, "g0", 4, rng=rng)
        out = str(tmp_path / "out")
        main(["regress", "--reports", str(tmp_path / "*.json"), "--out", out])
        rows = read_text(out, "samples.csv").splitlines()
        assert len(rows) == 1 + 3

    def test_external_report_dim_written_empty(self, tmp_path):
        self._write_report(tmp_path, "ext", 3, algorithm="external",
                           dim=None)
        self._write_report(tmp_path, "ext_rng", 8, algorithm="external",
                           dim=None, rng=np.random.default_rng(2))
        out = str(tmp_path / "out")
        assert main(["regress", "--reports", str(tmp_path / "*.json"),
                     "--out", out]) == 0
        rows = read_text(out, "samples.csv").splitlines()
        assert rows[0] == ("dataset,algorithm,dim,k,d_emd,d_size,"
                           "d_edge_density,d_clustering_coefficient,"
                           "d_transitivity")
        d_density = (0.1 + 0.01) - 0.1
        assert rows[1] == (f"ext,external,,1,0.01,-1.0,{d_density!r},"
                           "0.0,0.0")
        assert [row.split(",")[2] for row in rows[1:]] == [""] * 9
        fits = read_text(out, "fits.csv").splitlines()
        assert len(fits) == 1 + 5
        assert all(row.startswith("external,,9,") for row in fits[1:])
        entry = read_json(out, "fits.json")["fits"][0]
        assert entry["algorithm"] == "external" and entry["dim"] is None

    @pytest.mark.parametrize("case,cause", [
        ("not_object", "expected a JSON object, got list"),
        ("missing_key", "records[1]: missing key 'edge_density'"),
        ("wrong_type", "key 'embedder' must be an object, got 5"),
        ("null_delta", "records[2]: key 'delta' is null past the baseline"),
        ("float_k", "records[1]: key 'k' must be an integer, got 1.5"),
        ("nan_emd", "records[2]: key 'emd' must be a finite number, got nan"),
    ])
    def test_malformed_report_exit_2(self, tmp_path, caplog, case, cause):
        path = self._write_report(tmp_path, "g0", 4)
        with open(path) as fh:
            payload = json.load(fh)
        records = payload["records"]
        if case == "not_object":
            payload = [payload]
        elif case == "missing_key":
            del records[1]["edge_density"]
        elif case == "wrong_type":
            payload["embedder"] = 5
        elif case == "null_delta":
            records[2]["delta"] = None
        elif case == "float_k":
            records[1]["k"] = 1.5
        else:
            records[2]["emd"] = float("nan")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with caplog.at_level("ERROR"):
            assert main(["regress", "--reports", path,
                         "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: {cause}" in caplog.text


class TestGenerate:
    def test_er_outputs_and_determinism(self, tmp_path):
        spec = write_json(tmp_path, "spec.json",
                          {"model": "er", "n": 50, "p": 0.1})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["generate", "--spec", spec, "--seed", "4",
                         "--out", out]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)
        prov = read_json(out_a, "provenance.json")
        assert prov["spec"]["model"] == "er"
        assert prov["seed"] == 4 and "seed" not in prov["spec"]

    def test_seed_option_selects_the_graph(self, tmp_path):
        spec = write_json(tmp_path, "spec.json",
                          {"model": "er", "n": 50, "p": 0.1})
        edges = []
        for seed in ("5", "9"):
            out = str(tmp_path / seed)
            assert main(["generate", "--spec", spec, "--seed", seed,
                         "--out", out]) == 0
            edges.append(read_text(out, "edges.txt"))
        assert edges[0] != edges[1]

    def test_ba_edge_count(self, tmp_path):
        spec = write_json(tmp_path, "spec.json",
                          {"model": "ba", "n": 40, "m_attach": 3})
        out = str(tmp_path / "out")
        assert main(["generate", "--spec", spec, "--out", out]) == 0
        lines = read_text(out, "edges.txt").splitlines()
        assert len(lines) == 3 * (40 - 3)

    def test_invalid_spec_exit_2(self, tmp_path):
        spec = write_json(tmp_path, "spec.json", {"model": "er", "n": 10})
        assert main(["generate", "--spec", spec,
                     "--out", str(tmp_path / "o")]) == 2


class TestPipelines:
    def test_generate_kcore_share_regress(self, tmp_path):
        """End-to-end: synthesize, decompose, measure, regress."""
        spec = write_json(tmp_path, "gen.json",
                          {"model": "er", "n": 60, "p": 0.15})
        gen_out = str(tmp_path / "gen")
        assert main(["generate", "--spec", spec, "--seed", "2",
                     "--out", gen_out]) == 0
        graph = os.path.join(gen_out, "edges.txt")
        assert main(["kcore", "--graph", graph,
                     "--out", str(tmp_path / "kc")]) == 0
        espec = write_json(tmp_path, "embed.json",
                           {"algorithm": "line1", "dim": 4, "batches": 10})
        share_out = str(tmp_path / "share")
        assert main(["share", "--graph", graph, "--embedder", espec,
                     "--seed", "1", "--out", share_out]) == 0
        assert main(["regress",
                     "--reports", os.path.join(share_out, "share_report.json"),
                     "--out", str(tmp_path / "reg")]) in (0, 3)
