"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s`)."""

import time

import numpy as np
import pytest

from miml import dataio, dmimlsvm, insdif, mimlboost, mimlsvm, subcod
from miml.bagdist import k_medoids_from_dists, pairwise_hausdorff
from miml.bench import SynthSpec, generate, paired_t_test, random_split_eval
from miml.cli import REGISTRY, fit_with_config, make_fit_predict, run as cli_run
from miml.core import Bag, Bags, label_signs
from miml.kernels import KernelSpec, build_gram
from miml.metrics import average_f1, compute_report

from conftest import hausdorff, make_dataset, prior_fit_predict, random_bag, random_dataset
from test_dmimlsvm import full_qp_objective
from test_metrics import oracle_report, random_case


def check(criterion: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_metric_oracles():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(2, 7))
        p = int(rng.integers(1, 11))
        preds, truth = random_case(rng, T, p)
        rep = compute_report(preds, truth, T)
        h, one, cov, rl, ap, ar = oracle_report(preds, truth, T)
        diffs = [abs(rep.hamming_loss - h), abs(rep.one_error - one),
                 abs(rep.coverage - cov), abs(rep.ranking_loss - rl),
                 abs(rep.avg_precision - ap), abs(rep.avg_recall - ar),
                 abs(rep.avg_f1 - average_f1(ap, ar))]
        worst = max(worst, max(diffs))
    elapsed = time.time() - start
    check(1, worst <= 1e-12 and elapsed < 5.0,
          f"(200 cases, max deviation {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_2_hausdorff_properties():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        a, b, c = (random_bag(rng, d, n_max=4, ident=k) for k in "abc")
        dab, dba, dbc, dac = (hausdorff(a, b), hausdorff(b, a),
                              hausdorff(b, c), hausdorff(a, c))
        ok &= hausdorff(a, a) == 0.0
        ok &= dab == dba
        ok &= dab >= 0.0
        ok &= dab + dbc >= dac - 1e-12
        # double max-min enumeration oracle
        def directed(P, Q):
            return max(min(float(np.linalg.norm(p - q)) for q in Q.feats)
                       for p in P.feats)
        ok &= abs(dab - max(directed(a, b), directed(b, a))) <= 1e-12
    check(2, ok, "(identity, symmetry, triangle, enumeration on 100 triples)")


def test_criterion_3_kmedoids():
    rng = np.random.default_rng(303)
    ok = True
    for seed in range(50):
        bags = Bags.stack([random_bag(rng, 2, n_max=3, ident=f"b{i}")
                           for i in range(int(rng.integers(5, 12)))])
        k = int(rng.integers(1, len(bags) + 1))
        D = pairwise_hausdorff(bags)
        res = k_medoids_from_dists(D, k, seed=seed)
        for x, y in zip(res.cost_history, res.cost_history[1:]):
            ok &= y <= x + 1e-9
        for i, a in enumerate(res.assignment):
            if i in res.medoid_indices:
                ok &= a == i
            else:
                ok &= D[i, a] <= min(D[i, mm] for mm in res.medoid_indices) + 1e-12
    check(3, ok, "(50 seeded runs: monotone cost, nearest-medoid assignments)")


def test_criterion_4_mimlboost():
    grid = np.arange(0.0, 10.0 + 1e-12, 1e-5)
    captured = 0
    ok_c = True
    ok_w = True
    monotone = 0
    runs = 20
    for seed in range(runs):
        spec = SynthSpec(T=3, d=4, m=18, n_min=1, n_max=3, label_prob=0.4,
                         spread=0.35, seed=seed)
        ds, _ = generate(spec)
        cfg = mimlboost.BoostConfig(rounds=10, base="svm", C=5.0, seed=seed)
        model = mimlboost.fit(ds, cfg)
        for entry in model.history["rounds"]:
            if captured < 20:
                W, e = entry["W"], entry["e"]
                # bags sharing a value of 2e - 1 share their exp(c (2e - 1))
                # factor: sum W per distinct value (at most 5 with <= 3
                # instances per bag) and evaluate one exp vector per value
                rates, group = np.unique(2 * e - 1, return_inverse=True)
                weights = np.bincount(group, weights=W)
                vals = sum(w * np.exp(grid * r) for w, r in zip(weights, rates))
                if captured == 0:
                    # the ungrouped per-bag sum over grid chunks (without the
                    # ~430 MB temporaries of one (grid, bags) matrix) agrees
                    per_bag = np.concatenate([
                        np.sum(W[None, :] * np.exp(np.outer(grid[s:s + 50_000], 2 * e - 1)),
                               axis=1)
                        for s in range(0, grid.size, 50_000)])
                    assert np.allclose(vals, per_bag, rtol=1e-12, atol=0.0)
                    assert np.argmin(vals) == np.argmin(per_bag)
                ok_c &= abs(entry["c"] - grid[np.argmin(vals)]) <= 1e-4
                captured += 1
            ok_w &= bool(np.all(entry["W"] >= 0)
                         and abs(entry["W"].sum() - 1.0) <= 1e-12)

        def train_hamming(rounds_used):
            part = mimlboost.BoostModel(rounds=model.rounds[:rounds_used],
                                        T=ds.T, d=ds.d, config=cfg)
            preds = mimlboost.predict_many(part, ds.bags())
            return compute_report([preds], ds.label_sets(), ds.T).hamming_loss

        if len(model.rounds) >= 1:
            first = train_hamming(1)
            last = train_hamming(min(10, len(model.rounds)))
            monotone += last <= first + 1e-12
    ok = ok_c and ok_w and captured == 20 and monotone >= 0.9 * runs
    check(4, ok, f"(c_t grid-matched on {captured} rounds, weights valid, "
                 f"loss non-increasing in {monotone}/{runs} runs)")


def test_criterion_5_mimlsvm_protocol():
    rng = np.random.default_rng(505)
    for _ in range(10000):
        scores = rng.normal(size=int(rng.integers(1, 8)))
        assert mimlsvm.tcriterion(scores[None, :]).any()

    spec = SynthSpec(T=4, d=6, m=200, n_min=2, n_max=5, label_prob=0.35,
                     spread=0.45, seed=13)
    ds, _ = generate(spec)
    svm_summary = random_split_eval(
        make_fit_predict("mimlsvm", {"mimlsvm.C": "1.0"}), ds, 0.75, 30, seed=1)
    prior_summary = random_split_eval(
        prior_fit_predict, ds, 0.75, 30, seed=1)
    res = paired_t_test(svm_summary.paired_values("hamming_loss"),
                        prior_summary.paired_values("hamming_loss"))
    mean_h = svm_summary.mean.hamming_loss
    ok = (mean_h < 0.15) and res.significant and res.t < 0
    check(5, ok, f"(never-empty x10k; mean hloss {mean_h:.3f} < 0.15; "
                 f"t={res.t:.2f} vs prior {prior_summary.mean.hamming_loss:.3f}, significant)")


def test_criterion_6_dmimlsvm():
    rng = np.random.default_rng(606)
    # (a) CCCP monotonicity + (b) exhaustive-sweep certificate, 10 seeded runs
    mono_ok = True
    sweep_ok = True
    for seed in range(10):
        ds = random_dataset(np.random.default_rng(seed), m=6, T=2, d=2, n_max=3)
        model = dmimlsvm.fit(ds, dmimlsvm.DMimlConfig(gamma=25.0, seed=seed,
                                                      cccp_max_iters=5))
        hist = model.history["objective"]
        mono_ok &= all(b <= a + 1e-8 for a, b in zip(hist, hist[1:]))
        sweep_ok &= model.history["max_violation"] <= 1e-4

    # (c) restricted vs full-constraint QP on m <= 6
    qp_ok = True
    for trial in range(3):
        ds = random_dataset(np.random.default_rng(40 + trial), m=5, T=2, d=2, n_max=3)
        cfg = dmimlsvm.DMimlConfig(lam=0.6, mu=0.0, gamma=6.0)
        gram = build_gram(KernelSpec("rbf", 0.5), ds)
        Y = label_signs(ds.Y)
        rho = dmimlsvm.uniform_rho(gram.offsets, ds.T)
        sol = dmimlsvm.cutting_plane_solve(gram, Y, rho, cfg,
                                           np.random.default_rng(trial))
        obj = dmimlsvm.objective_value(sol.alphas, sol.xi, sol.delta,
                                       gram.values, cfg)
        qp_ok &= abs(obj - full_qp_objective(gram, Y, rho, cfg)) <= 1e-4

    # (d) imbalance rates sum to 1
    ibr_ok = True
    for seed in range(5):
        ds = random_dataset(np.random.default_rng(seed), m=8, T=3, d=2)
        if set().union(*ds.label_sets()) != {0, 1, 2}:
            continue
        ibr_ok &= abs(dmimlsvm.compute_imbalance_rates(ds).sum() - 1.0) <= 1e-12

    # (e) paired protocol against MimlSvm (desk-scaled)
    spec = SynthSpec(T=3, d=5, m=32, n_min=1, n_max=3, label_prob=0.4,
                     spread=0.5, seed=21)
    ds, _ = generate(spec)
    dm_summary = random_split_eval(
        make_fit_predict("dmimlsvm", {"dmiml.cccp_iters": "4"}), ds, 0.75, 30, seed=2)
    ms_summary = random_split_eval(
        make_fit_predict("mimlsvm", {"mimlsvm.C": "1.0"}), ds, 0.75, 30, seed=2)
    dm_h = np.array(dm_summary.paired_values("hamming_loss"))
    ms_h = np.array(ms_summary.paired_values("hamming_loss"))
    wins = float(np.mean(dm_h <= ms_h + 1e-12))
    ok = mono_ok and sweep_ok and qp_ok and ibr_ok and wins >= 0.6
    check(6, ok, f"(monotone CCCP, sweep <= 1e-4, QP match, ibr sum; "
                 f"dmiml<=mimlsvm in {wins:.0%} of 30 paired runs, "
                 f"means {dm_summary.mean.hamming_loss:.3f} vs {ms_summary.mean.hamming_loss:.3f})")


def test_criterion_7_insdif():
    ok_res = True
    rng = np.random.default_rng(707)
    for seed in range(6):
        r = np.random.default_rng(seed)
        m, T, d = 12, 3, 3
        while True:
            pairs = [(Bag(f"s{i}", r.normal(size=(1, d))),
                      frozenset(int(v) for v in r.choice(T, size=int(r.integers(1, T)),
                                                         replace=False)))
                     for i in range(m)]
            if set().union(*(l for _, l in pairs)) == set(range(T)):
                break
        ds = make_dataset(pairs, T=T)
        model = insdif.fit(ds, insdif.InsDifConfig(seed=seed))
        Phi, Tg = model.history["Phi"], model.history["targets"]
        res = np.linalg.norm(Phi.T @ Phi @ model.W - Phi.T @ Tg)
        ok_res &= res <= 1e-8 * (1 + np.linalg.norm(Phi.T @ Tg))

    # interpolation: square nonsingular Phi reproduces the targets
    interp_ok = False
    seed = 0
    while not interp_ok and seed < 10:
        r = np.random.default_rng(900 + seed)
        pairs = [(Bag(f"s{i}", r.normal(size=(1, 3))),
                  frozenset({int(r.integers(0, 2))})) for i in range(6)]
        labels = set().union(*(l for _, l in pairs))
        seed += 1
        if labels != {0, 1}:
            continue
        ds = make_dataset(pairs, T=2)
        model = insdif.fit(ds, insdif.InsDifConfig(M=6, seed=0))
        Phi, Tg = model.history["Phi"], model.history["targets"]
        if abs(np.linalg.det(Phi)) > 1e-8:
            interp_ok = bool(np.allclose(Phi @ model.W, Tg, atol=1e-6))
    check(7, ok_res and interp_ok,
          "(normal-equation residual bound on 6 fits; interpolation exact)")


def test_criterion_8_subcod():
    em_ok = True
    resp_ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        X = np.vstack([r.normal(size=(12, 2)) - 2.5, r.normal(size=(12, 2)) + 2.5])
        gmm = subcod.em_fit_gmm(X, M=2, seed=seed)
        em_ok &= all(b >= a - 1e-9 for a, b in zip(gmm.history, gmm.history[1:]))
        R = gmm.responsibilities(X)
        resp_ok &= bool(np.allclose(R.sum(axis=1), 1.0, atol=1e-10))

    # polishing: monotone objective and the pinning budget
    r = np.random.default_rng(88)
    m, M = 5, 3
    c = np.where(r.random((m, M)) < 0.5, 1.0, -1.0)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    c_t, hist, _ = subcod.polish_labels(c, y, theta=int(0.4 * m * M), C=1.0)
    polish_ok = all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    c_pin, _, _ = subcod.polish_labels(c, y, theta=(m * M + 1) // 2, C=1.0)
    pin_ok = bool(np.array_equal(c_pin, c))

    # planted-cluster recovery on the degenerate-noise generator (T=2 makes
    # every example single-label)
    spec = SynthSpec(T=2, d=3, m=30, n_min=1, n_max=3, label_prob=0.5,
                     spread=0.05, noise=0.0, seed=5)
    ds, planted = generate(spec)
    model = subcod.fit(ds, subcod.SubCodConfig(M=2, seed=0))
    assigns = model.history["assignments"]
    flat = np.array([src for sources in planted for src in sources])
    agree = max(float(np.mean(assigns == flat)), float(np.mean(assigns == 1 - flat)))
    ok = em_ok and resp_ok and polish_ok and pin_ok and agree > 0.8
    check(8, ok, f"(EM monotone x20, rows stochastic, polish monotone, "
                 f"pinning exact, recovery {agree:.2f} > 0.8)")


def test_criterion_9_persistence(tmp_path):
    rng = np.random.default_rng(909)
    ds = random_dataset(rng, m=6, T=2, d=2, n_max=2)
    text1 = dataio.serialize_dataset(ds)
    text2 = dataio.serialize_dataset(dataio.parse_dataset(text1))
    ds_ok = text1 == text2

    single = make_dataset(
        [(Bag(f"s{i}", rng.normal(size=(1, 2))), frozenset({int(rng.integers(0, 2))}))
         for i in range(8)],
        T=2)
    if set().union(*single.label_sets()) != {0, 1}:
        pytest.skip("unlucky draw")
    datasets = {"mimlboost": ds, "mimlsvm": ds, "dmimlsvm": ds,
                "insdif": single, "subcod": single}
    configs = {"mimlboost": {"boost.rounds": "2", "boost.base": "stump"},
               "mimlsvm": {"mimlsvm.C": "1.0"},
               "dmimlsvm": {"dmiml.cccp_iters": "2", "dmiml.gamma": "10"},
               "insdif": {}, "subcod": {"subcod.M": "2"}}
    model_ok = True
    for algo, entry in REGISTRY.items():
        model, _ = fit_with_config(algo, datasets[algo], configs[algo])
        env = dataio.ModelEnvelope(algorithm=algo, hyper={}, payload=model.to_payload())
        t1 = dataio.serialize_model(env)
        restored = entry.model_cls.from_payload(dataio.parse_model(t1).payload)
        t2 = dataio.serialize_model(dataio.ModelEnvelope(
            algorithm=algo, hyper={}, payload=restored.to_payload()))
        model_ok &= t1 == t2

    data = tmp_path / "d.miml"
    data.write_text(dataio.serialize_dataset(ds))
    import io
    argv = ["cv", "--algo", "mimlsvm", "--data", str(data), "--runs", "2",
            "--seed", "3"]
    out1, out2 = io.StringIO(), io.StringIO()
    cli_run(argv, out=out1)
    cli_run(argv, out=out2)
    cv_ok = out1.getvalue() == out2.getvalue()
    check(9, ds_ok and model_ok and cv_ok,
          "(dataset bytes stable, 5 model payloads stable, cv reproducible)")


def test_criterion_10_end_to_end_smoke(tmp_path):
    base_spec = ("d=4\nm=50\nlabel_prob=0.4\nspread=0.3\nseed=6\n")
    specs = {
        "mimlboost": "T=3\nn_min=1\nn_max=3\n" + base_spec,
        "mimlsvm": "T=3\nn_min=1\nn_max=3\n" + base_spec,
        "dmimlsvm": "T=3\nn_min=1\nn_max=3\n" + base_spec,
        "insdif": "T=3\nsingle_instance=1\nn_min=1\nn_max=1\n" + base_spec,
        "subcod": "T=2\nn_min=1\nn_max=3\n" + base_spec,     # single-label
    }
    configs = {
        "mimlboost": "boost.rounds=25\nboost.base=svm\nboost.C=5.0\n",
        "mimlsvm": "mimlsvm.C=1.0\n",
        "dmimlsvm": "dmiml.cccp_iters=3\n",
        "insdif": "",
        "subcod": "subcod.M=3\n",
    }
    times = {}
    ok = True
    for algo in REGISTRY:
        spec_f = tmp_path / f"{algo}.spec"
        spec_f.write_text(specs[algo])
        data_f = tmp_path / f"{algo}.miml"
        model_f = tmp_path / f"{algo}.model"
        cfg_f = tmp_path / f"{algo}.cfg"
        cfg_f.write_text(configs[algo])
        start = time.time()
        ok &= cli_run(["synth", "--spec", str(spec_f), "--out", str(data_f)]) == 0
        ok &= cli_run(["train", "--algo", algo, "--data", str(data_f),
                       "--model", str(model_f), "--config", str(cfg_f)]) == 0
        import io
        out = io.StringIO()
        ok &= cli_run(["eval", "--model", str(model_f), "--data", str(data_f)],
                      out=out) == 0
        times[algo] = time.time() - start
        ok &= times[algo] < 60.0
    detail = ", ".join(f"{a}={t:.1f}s" for a, t in times.items())
    check(10, ok, f"({detail}; all < 60s)")
