"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria that need the
SNAP Facebook edge list (set CORESTAB_FACEBOOK or put facebook_combined.txt
under ./data or $CORESTAB_DATA) report SKIPPED when the file is absent.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.special import expit

import corestab as cs
from corestab._util import derive_seed
from corestab.embed import EmbedSpec, embed_graph, save_embedding_csv
from corestab.evaluation import (evaluate, make_split,
                                 stability_error_distribution)
from corestab.graph import core_decomposition, load_edge_list
from corestab.regress import collect_samples, ols_fit
from corestab.share import emd_1d, run_share
from corestab.stable import StableConfig, stable_train
from corestab.synth import GenSpec, generate

from conftest import (ba_with_pendants, central_difference,
                      clique_rw_spectrum, clique_spectrum_numeric,
                      desk_graph, emd_lp, le_base_gradient, line_gradients,
                      naive_coreness, random_er, stability_gradient)

SEEDS = (0, 1, 2)


def report(num, passed, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def facebook_path():
    explicit = os.environ.get("CORESTAB_FACEBOOK")
    if explicit and os.path.exists(explicit):
        return explicit
    data_dir = os.environ.get("CORESTAB_DATA", "data")
    cand = os.path.join(data_dir, "facebook_combined.txt")
    return cand if os.path.exists(cand) else None


def rel_err(analytic, fd):
    denom = max(np.linalg.norm(fd), 1e-12)
    return np.linalg.norm(analytic - fd) / denom


def test_criterion_1_clique_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 10, 50):
        numeric = clique_spectrum_numeric(n, cluster_tol=1e-6)
        expected = clique_rw_spectrum(n)
        assert len(numeric) == len(expected), f"n={n}: wrong eigenvalue count"
        for (val, mult), (eval_, emult) in zip(numeric, expected):
            assert mult == emult, f"n={n}: multiplicity {mult} != {emult}"
            worst = max(worst, abs(val - eval_))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-8 and elapsed < 5,
           f"clique spectra n in {{2,3,10,50}}, max eigenvalue error "
           f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_kcore_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240201)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        g = random_er(rng, n, float(rng.uniform(0.05, 0.5)))
        if not np.array_equal(core_decomposition(g).coreness,
                              naive_coreness(g)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(2, mismatches == 0 and elapsed < 10,
           f"200 random graphs vs fixpoint-deletion oracle, "
           f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_3_emd_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    # emd_1d has two forms, quantile gaps for equal sizes and merged CDFs
    # otherwise; each is checked against the LP on 100 pairs
    worst = {}
    for form in ("quantile", "merged-CDF"):
        worst[form] = 0.0
        for _ in range(100):
            na = int(rng.integers(1, 11))
            nb = na if form == "quantile" else na + int(rng.integers(1, 10))
            a, b = np.sort(rng.normal(size=na)), np.sort(rng.normal(size=nb))
            worst[form] = max(worst[form], abs(emd_1d(a, b) - emd_lp(a, b)))
    metric_ok = True
    for _ in range(100):
        a = np.sort(rng.normal(size=int(rng.integers(1, 9))))
        b = np.sort(rng.normal(size=int(rng.integers(1, 9))))
        c = np.sort(rng.normal(size=int(rng.integers(1, 9))))
        ab, ba = emd_1d(a, b), emd_1d(b, a)
        metric_ok &= abs(ab - ba) <= 1e-12
        metric_ok &= emd_1d(a, c) <= ab + emd_1d(b, c) + 1e-12
        metric_ok &= emd_1d(a, a.copy()) == 0.0
    elapsed = time.perf_counter() - start
    report(3, max(worst.values()) <= 1e-9 and metric_ok and elapsed < 10,
           "LP-oracle max gap on 100 pairs per form: "
           + ", ".join(f"{form} {w:.2e}" for form, w in worst.items())
           + f"; metric properties on 100 triples, {elapsed:.2f}s")


def test_criterion_4_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = {"line_i": 0.0, "line_j": 0.0, "line_neg": 0.0, "le": 0.0,
             "stability": 0.0}
    for _ in range(100):
        d = int(rng.integers(2, 8))
        b = int(rng.integers(1, 6))
        u_i, u_j = rng.normal(size=d), rng.normal(size=d)
        negs = rng.normal(size=(b, d))

        def line_loss(ui=None, uj=None, ns=None):
            ui = u_i if ui is None else ui
            uj = u_j if uj is None else uj
            ns = negs if ns is None else ns
            val = -np.log(expit(ui @ uj))
            for kk in range(b):
                val -= np.log(expit(-ui @ ns[kk]))
            return val

        g_i, g_j, g_n = line_gradients(u_i, u_j, negs)
        worst["line_i"] = max(worst["line_i"], rel_err(
            g_i, central_difference(lambda x: line_loss(ui=x), u_i)))
        worst["line_j"] = max(worst["line_j"], rel_err(
            g_j, central_difference(lambda x: line_loss(uj=x), u_j)))
        for kk in range(b):
            def neg_loss(x, kk=kk):
                ns = negs.copy()
                ns[kk] = x
                return line_loss(ns=ns)
            worst["line_neg"] = max(worst["line_neg"], rel_err(
                g_n[kk], central_difference(neg_loss, negs[kk])))

        u_0 = rng.normal(size=d)
        w, gamma, beta = rng.uniform(0.1, 3.0, size=3)

        def le_loss(x):
            return (gamma * w * ((x - u_j) ** 2).sum()
                    + beta * ((x - u_0) ** 2).sum())

        worst["le"] = max(worst["le"], rel_err(
            2.0 * le_base_gradient(u_i, u_j, u_0, w, gamma, beta),
            central_difference(le_loss, u_i)))

        h_i, h_j = rng.normal(size=d), rng.normal(size=d)
        target = expit(h_i @ h_j)

        def stab_loss(x):
            return (expit(x @ u_j) - target) ** 2

        worst["stability"] = max(worst["stability"], rel_err(
            2.0 * stability_gradient(u_i, u_j, h_i, h_j),
            central_difference(stab_loss, u_i)))
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    report(4, not bad and elapsed < 30,
           "analytic vs central differences at 100 points per gradient, "
           "worst rel err "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f", {elapsed:.2f}s")


@pytest.fixture(scope="session")
def pattern2_reports():
    spec = EmbedSpec("line1", 10, batches=50)
    out = {}
    # BA alone is its own degenerate core; pendants give it shells to shave
    for label, g in (("er", generate(GenSpec("er", 5000, p=0.002), seed=7)),
                     ("ba+pendants", ba_with_pendants(2000, 5, 1000, 7))):
        out[label] = []
        for s in SEEDS:
            # keep only the baseline's mean, not every shell's distances
            means = {}

            def keep_baseline_mean(k, dist):
                if k == 0:
                    means[k] = dist.mean()

            rep = run_share(g, spec, seed=s, dataset=label,
                            on_distribution=keep_baseline_mean)
            out[label].append((rep, means[0]))
    return out


def test_criterion_5_pattern2_stability(pattern2_reports):
    start = time.perf_counter()
    details = []
    ok = True
    for label, reports in pattern2_reports.items():
        ratios = []
        for rep, baseline_mean in reports:
            if len(rep.records) < 2:  # no shell was shaved: vacuous arm
                report(5, False, f"{label}: only the baseline record")
            max_emd = max(r.emd for r in rep.records[1:])
            ratios.append(max_emd / baseline_mean)
        med = float(np.median(ratios))
        ok &= med <= 0.1
        details.append(f"{label}: median max-EMD/mean(D0) = {med:.4f}")
    elapsed = time.perf_counter() - start
    report(5, ok, "; ".join(details)
           + f" (threshold 0.1, 3 seeds each), check {elapsed:.1f}s")


DESK_CONFIGS = {
    # alpha for the spectral base is scaled to this 14-node fixture; the
    # paper-reported 1e5 operating point targets Facebook-sized spectra
    "line1": dict(dim=4, batches=300, alpha=10.0),
    "laplacian_eigenmaps": dict(dim=4, batches=400, alpha=100.0),
}


@pytest.fixture(scope="session")
def desk_stable_runs():
    g = desk_graph()
    runs = {}
    for base, params in DESK_CONFIGS.items():
        per_seed = []
        for s in SEEDS:
            cfg = StableConfig(base, **params)
            result = stable_train(g, cfg, seed=s)
            base_emb = embed_graph(g, EmbedSpec(
                base, params["dim"], batches=params["batches"]),
                seed=derive_seed(s, "base-arm"))
            per_seed.append((result, base_emb))
        runs[base] = per_seed
    return runs


def test_criterion_6_stable_improvement_desk(desk_stable_runs):
    start = time.perf_counter()
    ok = True
    details = []
    for base, per_seed in desk_stable_runs.items():
        wins = 0
        for result, base_emb in per_seed:
            stable_med = np.median(stability_error_distribution(
                result.embeddings, result.isolated_core, result.core_nodes))
            base_med = np.median(stability_error_distribution(
                base_emb, result.isolated_core, result.core_nodes))
            wins += int(stable_med < base_med)
        ok &= wins == len(per_seed)
        details.append(f"{base}: {wins}/{len(per_seed)} seeds improved")
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 60,
           "desk graph median stability error, " + "; ".join(details)
           + f", {elapsed:.1f}s")


def test_criterion_6f_stable_improvement_facebook():
    path = facebook_path()
    if path is None:
        print("\nACCEPTANCE 6 (facebook) SKIPPED: dataset absent")
        pytest.skip("facebook dataset not supplied")
    start = time.perf_counter()
    g = load_edge_list(path)
    ok = True
    details = []
    for base, dim, alpha in (("line1", 64, 10.0),
                             ("laplacian_eigenmaps", 20, 1e5)):
        wins = 0
        for s in SEEDS:
            cfg = StableConfig(base, dim=dim, batches=100, alpha=alpha)
            result = stable_train(g, cfg, seed=s)
            base_emb = embed_graph(g, EmbedSpec(base, dim, batches=100),
                                   seed=derive_seed(s, "base-arm"))
            stable_med = np.median(stability_error_distribution(
                result.embeddings, result.isolated_core, result.core_nodes))
            base_med = np.median(stability_error_distribution(
                base_emb, result.isolated_core, result.core_nodes))
            wins += int(stable_med < base_med)
        ok &= wins == len(SEEDS)
        details.append(f"{base}: {wins}/{len(SEEDS)}")
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 1800,
           "facebook median stability error, " + "; ".join(details)
           + f", {elapsed:.0f}s")


def test_criterion_7_loss_trace_shape(desk_stable_runs):
    ok = True
    details = []
    for base, per_seed in desk_stable_runs.items():
        good_seeds = 0
        for result, _ in per_seed:
            n_b = len(result.base_loss)
            tenth = max(1, n_b // 10)
            ls_drop = (result.stability_loss[:tenth].mean()
                       > result.stability_loss[-tenth:].mean())
            lb_drop = (result.base_loss[:tenth].mean()
                       > result.base_loss[-tenth:].mean())
            good_seeds += int(ls_drop and lb_drop)
        ok &= good_seeds >= 2
        details.append(f"{base}: {good_seeds}/3 seeds with both losses "
                       "decreasing first->last tenth")
    report(7, ok, "; ".join(details))


def test_criterion_8_link_prediction():
    path = facebook_path()
    if path is None:
        print("\nACCEPTANCE 8 SKIPPED: dataset absent "
              "(criteria 1-7, 9, 10 constitute the full suite)")
        pytest.skip("facebook dataset not supplied")
    start = time.perf_counter()
    g = load_edge_list(path)
    split = make_split(g, 0.1, seed=0)
    le_emb = embed_graph(split.train, EmbedSpec("laplacian_eigenmaps", 20))
    le_scores = evaluate(le_emb, split)
    le_ok = abs(le_scores.f1 - 0.955) <= 0.03 and \
        abs(le_scores.auc - 0.984) <= 0.02

    f1_base, f1_stable = [], []
    for s in SEEDS:
        sp = make_split(g, 0.1, seed=s)
        base_emb = embed_graph(sp.train, EmbedSpec("line1", 128, batches=100),
                               seed=derive_seed(s, "base"))
        f1_base.append(evaluate(base_emb, sp).f1)
        cfg = StableConfig("line1", dim=128, batches=100)
        f1_stable.append(evaluate(stable_train(sp.train, cfg, seed=s)
                                  .embeddings, sp).f1)
    margin = float(np.mean(f1_stable) - np.mean(f1_base))
    elapsed = time.perf_counter() - start
    report(8, le_ok and margin > 0,
           f"LE F1={le_scores.f1:.3f} (target 0.955±0.03) "
           f"AUC={le_scores.auc:.3f} (target 0.984±0.02); "
           f"stable-vs-base LINE F1 margin {margin:+.3f} over 3 seeds, "
           f"{elapsed:.0f}s")


def test_criterion_9_regression_sanity(pattern2_reports, karate):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    deltas, y = [], []
    for _ in range(200):
        deltas.append(rng.normal(size=4))  # size, density, clust, trans
        y.append(2.0 * deltas[-1][1] + rng.normal() * 1e-6)
    x, y = np.column_stack([np.ones(200), np.array(deltas)]), np.array(y)
    fit = ols_fit(x, y)
    planted_ok = abs(fit.coefficients[2] - 2.0) <= 1e-3

    resid = y - x @ fit.coefficients
    ortho = max(abs(resid @ x[:, j])
                / max(np.linalg.norm(resid) * np.linalg.norm(x[:, j]), 1e-300)
                for j in range(x.shape[1]))
    ortho_ok = ortho <= 1e-8

    spec = EmbedSpec("line1", 10, batches=50)
    pooled_reports = [r for reports in pattern2_reports.values()
                      for r, _ in reports]
    pooled_reports.append(run_share(karate, spec, seed=0, dataset="karate"))
    pooled_reports.append(run_share(desk_graph(), spec, seed=0,
                                    dataset="desk"))
    short = [r.dataset for r in pooled_reports if len(r.records) < 2]
    if short:
        report(9, False, f"reports with fewer than 2 records: {short}")
    pooled_fit = ols_fit(*collect_samples(pooled_reports)[:2])
    ci_ok = ((pooled_fit.ci_lower <= pooled_fit.coefficients).all()
             and (pooled_fit.coefficients <= pooled_fit.ci_upper).all())
    signs = (f"pooled fit on {pooled_fit.samples} samples: density coeff "
             f"{pooled_fit.coefficients[2]:+.4f}, size coeff "
             f"{pooled_fit.coefficients[1]:+.2e} (signs reported, not gated)")
    elapsed = time.perf_counter() - start
    report(9, planted_ok and ortho_ok and ci_ok,
           f"planted density coeff {fit.coefficients[2]:.6f} (target 2±1e-3), "
           f"residual orthogonality {ortho:.1e}; {signs}; {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path, karate_file):
    from corestab.cli import main

    start = time.perf_counter()
    g = desk_graph()
    desk_file = tmp_path / "desk.txt"
    desk_file.write_text("".join(f"{i} {j}\n" for i, j in g.edges.tolist()))
    embed_spec = tmp_path / "embed.json"
    embed_spec.write_text(json.dumps(
        {"algorithm": "line1", "dim": 3, "batches": 8}))
    stable_cfg = tmp_path / "stable.json"
    stable_cfg.write_text(json.dumps(
        {"base": "line1", "dim": 3, "batches": 6}))
    gen_spec = tmp_path / "gen.json"
    gen_spec.write_text(json.dumps({"model": "er", "n": 40, "p": 0.15}))
    rng = np.random.default_rng(0)
    karate = load_edge_list(karate_file)
    emb_file = tmp_path / "emb.csv"
    save_embedding_csv(emb_file, rng.normal(size=(karate.n, 4)),
                       karate.orig_ids)

    share_dir = tmp_path / "share_for_regress"
    assert main(["share", "--graph", str(desk_file), "--embedder",
                 str(embed_spec), "--seed", "3",
                 "--out", str(share_dir)]) == 0

    commands = {
        "kcore": ["kcore", "--graph", karate_file],
        "share": ["share", "--graph", str(desk_file), "--embedder",
                  str(embed_spec), "--seed", "3"],
        "stable": ["stable", "--graph", str(desk_file), "--config",
                   str(stable_cfg), "--seed", "3"],
        "linkpred": ["linkpred", "--graph", karate_file, "--embeddings",
                     str(emb_file), "--seed", "3"],
        "regress": ["regress", "--reports",
                    str(share_dir / "share_report.json")],
        "generate": ["generate", "--spec", str(gen_spec), "--seed", "3"],
    }

    def snapshot(out_dir):
        files = {}
        for root, _, names in os.walk(out_dir):
            for name in names:
                if name == "manifest.json":
                    continue
                p = os.path.join(root, name)
                with open(p, "rb") as fh:
                    files[os.path.relpath(p, out_dir)] = fh.read()
        return files

    mismatched = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        code_a = main(argv + ["--out", str(out_a)])
        code_b = main(argv + ["--out", str(out_b)])
        if code_a != code_b or snapshot(out_a) != snapshot(out_b):
            mismatched.append(name)
    elapsed = time.perf_counter() - start
    report(10, not mismatched,
           f"all 6 commands rerun byte-identically "
           f"(manifest excluded){': ' + ','.join(mismatched) if mismatched else ''}"
           f", {elapsed:.1f}s")
