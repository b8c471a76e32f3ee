"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest -s tests/test_acceptance.py
Expensive end-to-end runs are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

import clear_reference as ref
from conftest import FP, indicator, no_rows, reconstruct, run3, shared, shared_matrix

from silosynth import fixedpoint as fx
from silosynth.binning import bin_train, compute_bin_means
from silosynth.circuits import mul_shares
from silosynth.config import canonical_text
from silosynth.datafile import write_dataset
from silosynth.evaluation import lr_train
from silosynth.fixedpoint import FixedPointConfig
from silosynth.generator import generate_bridge, generate_synthetic, generator_rng
from silosynth.ingest import custodian_components, ingest_all
from silosynth.marginals import calibrate, noisy_marginals, scaled_onehots, split_marginals
from silosynth.pipeline import PUBLISH_CONTEXT, PipelineConfig, ThresholdSet, run_pipeline
from silosynth.primitives import gauss01
from silosynth.runtime import Party, config_fingerprint, run_parties, setup_handshake


def report(criterion: int, detail: str):
    print(f"\ncriterion {criterion}: PASS ({detail})")


# -- corpus for criteria 1 and 2 -------------------------------------------------

@pytest.fixture(scope="module")
def preprocessing_corpus():
    """25 random datasets through secure binning + sigma=0 marginals."""
    rng = np.random.default_rng(20240809)
    runs = []
    t0 = time.time()
    for trial in range(25):
        n = int(rng.integers(50, 301))
        d = int(rng.integers(5, 21))
        genes = rng.normal(0, 2.0, size=(n, d))
        labels = rng.integers(0, 5, size=n)
        mats = shared_matrix(fx.encode(genes), labels, 1000 + trial, namespace="acc")

        def body(p):
            binned, cuts, _ = bin_train(p, mats[p.pid - 1], no_rows(mats[p.pid - 1]))
            onehots = scaled_onehots(p, binned)
            means = compute_bin_means(p, onehots[0], mats[p.pid - 1].genes(), cuts)
            _, ms = noisy_marginals(p, onehots, 0.0)
            return binned, cuts, means, ms

        results, _ = run3(body, seed=5000 + trial)
        binned = reconstruct([r[0].data for r in results])[0]
        cuts = reconstruct([r[1] for r in results])[0]
        means = reconstruct([r[2] for r in results])[0]
        gene, label, two = split_marginals(fx.decode(reconstruct([r[3] for r in results])))
        marg = {"gene": gene[0], "label": label[0], "two": two[0]}
        runs.append(dict(genes=genes, labels=labels, binned=binned, cuts=cuts,
                         means=means, marg=marg))
    elapsed = time.time() - t0
    return runs, elapsed


def test_criterion_1_preprocessing_oracle_equivalence(preprocessing_corpus):
    runs, elapsed = preprocessing_corpus
    tol = 2.0 ** (-FP.frac_bits + 2)
    worst_mean_err = 0.0
    for run in runs:
        enc = fx.encode(run["genes"])
        d = enc.shape[1]
        want_binned, want_cuts, want_means, _ = ref.bin_dataset_fx(enc)
        assert np.array_equal(run["binned"][:, :d], want_binned), "bin indices differ"
        assert np.array_equal(run["cuts"], want_cuts)
        # means within tolerance of the independent float oracle
        vals = fx.decode(enc)
        got_means = fx.decode(run["means"])
        for g in range(d):
            for b in range(4):
                mask = want_binned[:, g] == b
                if mask.sum() == 0:
                    continue
                err = abs(got_means[g, b] - vals[:, g][mask].mean())
                worst_mean_err = max(worst_mean_err, err)
                assert err <= tol, f"bin mean off by {err}"
    assert elapsed < 300.0, f"criterion 1 runtime {elapsed:.0f}s exceeds 5 min"
    report(1, f"25 datasets, bins exact, worst mean err {worst_mean_err:.2e} <= {tol:.2e}, "
              f"{elapsed:.0f}s")


def test_criterion_2_marginal_exactness(preprocessing_corpus):
    runs, _ = preprocessing_corpus
    for run in runs:
        d = run["genes"].shape[1]
        n = run["genes"].shape[0]
        bg, bl, bt = ref.brute_marginals(run["binned"][:, :d].astype(np.int64), run["labels"])
        assert np.array_equal(run["marg"]["gene"], bg.astype(np.float64))
        assert np.array_equal(run["marg"]["label"], bl.astype(np.float64))
        assert np.array_equal(run["marg"]["two"], bt.astype(np.float64))
        assert np.all(run["marg"]["gene"].sum(axis=1) == n)
        assert np.all(run["marg"]["two"].sum(axis=1) == n)
        assert run["marg"]["label"].sum() == n
    report(2, "sigma=0 marginals equal brute-force counts exactly on all 25 datasets")


def test_criterion_3_indicator_truth_tables():
    s4 = shared(np.arange(4, dtype=np.uint64), 1100, namespace="acc")
    s5 = shared(np.arange(5, dtype=np.uint64), 1101, namespace="acc")

    def body(p):
        return indicator(p, s4[p.pid - 1], 4), indicator(p, s5[p.pid - 1], 5)

    results, _ = run3(body)
    table4 = reconstruct([r[0] for r in results])
    table5 = reconstruct([r[1] for r in results])
    checks = 0
    for b in range(4):
        for x in range(4):
            assert table4[b, x] == (1 if b == x else 0)
            checks += 1
    for b in range(5):
        for y in range(5):
            assert table5[b, y] == (1 if b == y else 0)
            checks += 1
    assert checks == 16 + 25
    report(3, "gene (4x4) and label (5x5) truth tables reproduced exactly, 41 assertions")


def test_criterion_4_dp_noise_and_calibration():
    def body(p):
        return gauss01(p, 10_000, 1)

    results, _ = run3(body, seed=424242)
    g = fx.decode(reconstruct(results))
    assert np.all(g >= -6.0) and np.all(g <= 6.0), "support violation"
    mean, var = float(g.mean()), float(g.var())
    assert abs(mean) < 0.05 and 0.9 <= var <= 1.1
    edges = scipy.stats.norm.ppf(np.linspace(0, 1, 21))
    observed, _ = np.histogram(g, bins=edges)
    expected = 10_000 / 20.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    crit = float(scipy.stats.chi2.ppf(0.99, 19))
    assert chi2 < crit, f"chi-square {chi2:.1f} >= {crit:.1f}"

    sigma_q = calibrate(1.0, 1e-5, 1)
    closed_form = math.sqrt(2.0 * math.log(1.25 / 1e-5))
    assert abs(sigma_q - closed_form) <= 5e-4
    report(4, f"mean {mean:+.4f}, var {var:.4f}, chi2 {chi2:.1f} < {crit:.1f}, "
              f"sigma_q {sigma_q:.4f} matches closed form {closed_form:.4f}")


def test_criterion_5_wle_properties(rng):
    from silosynth.evaluation import wle
    from silosynth.marginals import marginal_counts, scaled_onehots

    genes = rng.integers(0, 4, size=(25, 3))
    labels = rng.integers(0, 5, size=25)
    perm = rng.permutation(25)
    m_same1 = shared_matrix(genes.astype(np.uint64), labels, 1200, namespace="acc")
    m_same2 = shared_matrix(genes.astype(np.uint64), labels, 1201, namespace="acc")
    m_perm = shared_matrix(genes[perm].astype(np.uint64), labels[perm], 1202, namespace="acc")
    toy_real = shared_matrix(np.zeros((2, 0), dtype=np.uint64), np.array([0, 0]), 1203, namespace="acc")
    toy_synth = shared_matrix(np.zeros((2, 0), dtype=np.uint64), np.array([0, 1]), 1204, namespace="acc")

    def body(p):
        def wle_of(real, synth):
            counts = [marginal_counts(p, scaled_onehots(p, m)) for m in (real, synth)]
            return wle(p, *counts, real.rows)

        zero = wle_of(m_same1[p.pid - 1], m_same2[p.pid - 1])
        a = wle_of(m_same1[p.pid - 1], m_perm[p.pid - 1])
        b = wle_of(m_perm[p.pid - 1], m_same1[p.pid - 1])
        toy = wle_of(toy_real[p.pid - 1], toy_synth[p.pid - 1])
        return zero, a, b, toy

    results, _ = run3(body)
    zero = int(np.atleast_1d(reconstruct([r[0] for r in results]))[0])
    a = np.atleast_1d(reconstruct([r[1] for r in results]))
    b = np.atleast_1d(reconstruct([r[2] for r in results]))
    toy = fx.decode(np.atleast_1d(reconstruct([r[3] for r in results])))[0]
    assert zero == 0, "wle(D,D) != 0"
    assert np.array_equal(a, b), "permutation variance"
    assert toy == 1.0, f"toy wle {toy} != 1.0"
    report(5, "wle(D,D)=0 exact, permutation invariant, toy value 1.0 exact")


@pytest.fixture(scope="module")
def lr_dataset():
    rng = np.random.default_rng(606)
    genes = rng.integers(0, 4, size=(200, 10))
    scores = genes[:, 0] + genes[:, 1] - genes[:, 2] + rng.normal(0, 1.0, 200)
    labels = np.clip(np.digitize(scores, [-1.0, 1.5, 3.5, 5.5]), 0, 4)
    return genes, labels


def test_criterion_6_secure_lr_vs_cleartext(lr_dataset):
    """The enclave trains the utility model in the clear: its weights equal
    the cleartext mirror's, and the enclave step's traffic does not depend on
    the epoch count."""
    genes, labels = lr_dataset
    w = lr_train(Party(1, None, 909, FP), np.column_stack([genes, labels]), 150, 0.05)
    w_clear = ref.clear_lr_train(genes, labels, 150, 0.05)
    agreement = float((ref.clear_lr_predict(w, genes) == ref.clear_lr_predict(w_clear, genes)).mean())
    assert agreement >= 0.95, f"class agreement {agreement}"
    assert np.array_equal(w, w_clear), "enclave weights differ from the mirror's"

    mats = shared_matrix(genes.astype(np.uint64), labels, 1300, namespace="acc")
    traffic = {}
    for epochs in (150, 300):
        def body(p):
            _, ms = noisy_marginals(p, scaled_onehots(p, mats[p.pid - 1]), 0.0)
            return generate_bridge(p, ms, [200], 10, 909, [(0, 0)], epochs, 0.05)

        _, parties = run3(body, seed=909)
        traffic[epochs] = [{k: (e["rounds"], e["bytes_sent"], e["messages_sent"])
                            for k, e in p.ledger.snapshot().items()} for p in parties]
    assert traffic[150] == traffic[300], "enclave-step traffic depends on the epoch count"
    report(6, f"predicted-class agreement {agreement:.3f} >= 0.95 (weights bit-equal), "
              f"traffic identical at 150 and 300 epochs")


def test_criterion_7_communication_invariants(rng):
    # (a) one multiplication costs exactly 3 ring elements across the parties
    sx = shared(np.array([3], dtype=np.uint64), 1400, namespace="acc")
    sy = shared(np.array([4], dtype=np.uint64), 1401, namespace="acc")

    def body(p):
        with p.protocol("adhoc"):
            mul_shares(p, sx[p.pid - 1], sy[p.pid - 1])
        return p.ledger.entry("adhoc")

    _, parties = run3(body)
    total_bytes = sum(p.ledger.entry("adhoc").bytes_sent for p in parties)
    total_msgs = sum(p.ledger.entry("adhoc").messages_sent for p in parties)
    assert total_bytes == 24 and total_msgs == 3

    # (b) whole-pipeline ledgers identical across different same-shape inputs
    config = PipelineConfig(k_folds=2, max_loops=1, hyperparams=(10,), eps_s=5.0,
                            seed=31, n_custodians=2, lr_epochs=5)
    config.validate()
    snapshots = []
    for variant in range(2):
        datasets = [(rng.normal(variant * 5, 1 + variant, size=(15, 3)),
                     rng.integers(0, 5, size=15)) for _ in range(2)]
        thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
        uploads = [custodian_components(g, l, thresholds[c], 16, config.seed, c)
                   for c, (g, l) in enumerate(datasets)]
        fingerprint = config_fingerprint(canonical_text(config))

        def body(p):
            setup_handshake(p, fingerprint)
            combined, thr = ingest_all(p, [u[0][p.pid - 1] for u in uploads],
                                       [u[1][p.pid - 1] for u in uploads], 3)
            return run_pipeline(p, combined, ThresholdSet(thr), config)

        results, parties = run_parties(body, config.seed, FixedPointConfig(16), timeout=600)
        snap = [p.ledger.snapshot() for p in parties]
        for s in snap:
            for entry in s.values():
                entry.pop("seconds")
        snapshots.append(snap)
    assert snapshots[0] == snapshots[1], "ledger depends on secret values"
    labels_seen = sorted(snapshots[0][0])
    report(7, f"mul = 3 elements; ledgers identical across inputs over labels {labels_seen}")


# -- criterion 8/9: end-to-end runs ------------------------------------------------

def full_config(**kw):
    base = dict(k_folds=5, max_loops=4, hyperparams=(10, 15, 25, 30),
                eps_s=5.0, delta_s=1e-5, eps_p=1.0, delta_p=1e-6,
                seed=88, n_custodians=2, lr_epochs=30)
    base.update(kw)
    cfg = PipelineConfig(**base)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def e2e_datasets():
    rng = np.random.default_rng(777)
    datasets = []
    for _ in range(2):
        genes = rng.normal(0, 2.0, size=(100, 10))
        labels = rng.integers(0, 5, size=100)
        datasets.append((genes, labels))
    return datasets


def run_e2e(config, datasets, thresholds):
    uploads = [custodian_components(g, l, thresholds[c], 16, config.seed, c)
               for c, (g, l) in enumerate(datasets)]
    fingerprint = config_fingerprint(canonical_text(config))

    def body(p):
        setup_handshake(p, fingerprint)
        combined, thr = ingest_all(p, [u[0][p.pid - 1] for u in uploads],
                                   [u[1][p.pid - 1] for u in uploads], 10)
        return run_pipeline(p, combined, ThresholdSet(thr), config)

    t0 = time.time()
    results, parties = run_parties(body, config.seed, FixedPointConfig(16), timeout=1800)
    return results, parties, time.time() - t0


@pytest.fixture(scope="module")
def e2e_vacuous(e2e_datasets):
    config = full_config()
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    results, parties, elapsed = run_e2e(config, e2e_datasets, thresholds)
    return config, thresholds, results, parties, elapsed


@pytest.fixture(scope="module")
def e2e_unsatisfiable(e2e_datasets):
    config = full_config()
    thresholds = np.array([[1000.0, 2.0], [1000.0, 2.0]])
    results, parties, elapsed = run_e2e(config, e2e_datasets, thresholds)
    return config, thresholds, results, parties, elapsed


def test_criterion_8_end_to_end(e2e_datasets, e2e_vacuous, e2e_unsatisfiable, tmp_path):
    config, thresholds, results, _, elapsed_a = e2e_vacuous
    r = results[0]
    # (a) vacuous thresholds publish on loop 1 with the first candidate
    assert r.publish and r.h_selected == config.hyperparams[0]
    assert len(r.loops) == 1 and r.loops[0].vote_bit == 1
    assert r.synthetic.shape == (200, 11)

    # (b) unsatisfiable thresholds: no-publish after <= min(L, |H|) loops,
    #     zero openings besides vote bits
    config_b, _, results_b, _, elapsed_b = e2e_unsatisfiable
    rb = results_b[0]
    assert not rb.publish and rb.synthetic is None
    assert len(rb.loops) <= min(config_b.max_loops, len(config_b.hyperparams))
    assert all(rec.vote_bit == 0 for rec in rb.loops)
    assert rb.opening_log == [("vote", 1)] * len(rb.loops)

    # (c) seed-pinned secure run equals the clear pipeline byte for byte
    clear = ref.clear_pipeline(e2e_datasets, thresholds, config)
    assert clear["publish"] == r.publish and clear["h_selected"] == r.h_selected
    assert np.array_equal(clear["synthetic"], r.synthetic)
    secure_csv, clear_csv = tmp_path / "secure.csv", tmp_path / "clear.csv"
    for path, cells in ((secure_csv, r.synthetic), (clear_csv, clear["synthetic"])):
        write_dataset(str(path), fx.decode(cells[:, :10]),
                      fx.signed(cells[:, 10]).astype(np.int64))
    assert secure_csv.read_bytes() == clear_csv.read_bytes()

    total = elapsed_a + elapsed_b
    assert total < 1800.0, f"end-to-end runtime {total:.0f}s exceeds 30 min"
    report(8, f"(a) publish loop 1, (b) no-publish after {len(rb.loops)} loops, "
              f"(c) secure == clear byte-for-byte; {total:.0f}s total")


def test_criterion_9_opening_audit(e2e_unsatisfiable):
    _, _, results, parties, _ = e2e_unsatisfiable
    n_loops = len(results[0].loops)
    for p in parties:
        assert p.opening_log == [("vote", 1)] * n_loops, p.opening_log
    report(9, f"opening log holds exactly one vote bit per loop ({n_loops} loops), nothing else")


# -- criterion 10: combined vs local preprocessing ---------------------------------

def skewed_datasets(seed):
    rng = np.random.default_rng(seed)
    datasets = []
    for offset in (-4.0, 4.0):
        labels = rng.integers(0, 5, size=40)
        genes = rng.normal(0, 0.6, size=(40, 4)) + offset + 0.4 * labels[:, None]
        datasets.append((genes, labels))
    return datasets


def local_binning_publish(datasets, config):
    """Baseline: custodians bin locally; merged means de-bin the output."""
    f = config.frac_bits
    d = datasets[0][0].shape[1]
    enc_blocks = [fx.encode(g, f) for g, _ in datasets]
    binned_blocks, sums, ctrs = [], np.zeros((d, 4)), np.zeros((d, 4))
    for enc in enc_blocks:
        binned = np.zeros(enc.shape, dtype=np.int64)
        for g in range(d):
            cuts = ref.quantile_cuts_fx(enc[:, g], f)
            binned[:, g] = ref.bin_with_cuts_fx(enc[:, g], cuts).astype(np.int64)
            vals = fx.decode(enc[:, g], f)
            for b in range(4):
                mask = binned[:, g] == b
                sums[g, b] += vals[mask].sum()
                ctrs[g, b] += mask.sum()
        binned_blocks.append(binned)
    merged_means = np.divide(sums, ctrs, out=np.zeros_like(sums), where=ctrs > 0)
    binned_all = np.vstack(binned_blocks)
    labels_all = np.concatenate([l for _, l in datasets])
    from silosynth.marginals import measurement_count
    sigma_q = calibrate(config.eps_s, config.delta_s, measurement_count(d))
    noise = ref.NoiseReplay(config.seed, f)
    mg, ml, mt = ref.clear_noisy_marginals(binned_all, labels_all, sigma_q, noise, f)
    synth = generate_synthetic(fx.decode(mg, f), fx.decode(ml, f), fx.decode(mt, f),
                               binned_all.shape[0], config.hyperparams[0],
                               generator_rng(config.seed, PUBLISH_CONTEXT))
    out_genes = np.zeros((synth.shape[0], d))
    for g in range(d):
        out_genes[:, g] = merged_means[g][synth[:, g]]
    return out_genes, synth[:, d]


def combined_binning_publish(datasets, config):
    """Pipeline publish path in the clear mirror (secure-equal per criterion 8c)."""
    thresholds = np.array([[1000.0, 0.0]] * len(datasets))
    cfg = PipelineConfig(k_folds=2, max_loops=1, hyperparams=(config.hyperparams[0],),
                         eps_s=config.eps_s, delta_s=config.delta_s, seed=config.seed,
                         n_custodians=len(datasets), lr_epochs=2)
    cfg.validate()
    clear = ref.clear_pipeline(datasets, thresholds, cfg)
    assert clear["publish"]
    cells = clear["synthetic"]
    d = datasets[0][0].shape[1]
    return fx.decode(cells[:, :d]), fx.signed(cells[:, d]).astype(np.int64)


def eval_wle_against_real(real_genes, real_labels, synth_genes, synth_labels):
    """Workload error with both datasets binned by the real data's float quantiles."""
    d = real_genes.shape[1]
    rb = np.zeros(real_genes.shape, dtype=np.int64)
    sb = np.zeros(synth_genes.shape, dtype=np.int64)
    for g in range(d):
        cuts = np.quantile(real_genes[:, g], [0.25, 0.5, 0.75])
        rb[:, g] = 3 - sum((real_genes[:, g] < c).astype(np.int64) for c in cuts)
        sb[:, g] = 3 - sum((synth_genes[:, g] < c).astype(np.int64) for c in cuts)
    return ref.float_wle(rb, real_labels, sb, np.asarray(synth_labels, dtype=np.int64))


def test_criterion_10_combined_beats_local_preprocessing():
    wins = 0
    margins = []
    for trial in range(10):
        datasets = skewed_datasets(3000 + trial)
        config = full_config(seed=3000 + trial, hyperparams=(10,), max_loops=1, k_folds=2)
        real_genes = np.concatenate([g for g, _ in datasets])
        real_labels = np.concatenate([l for _, l in datasets])
        cg, cl = combined_binning_publish(datasets, config)
        lg, ll = local_binning_publish(datasets, config)
        wle_combined = eval_wle_against_real(real_genes, real_labels, cg, cl)
        wle_local = eval_wle_against_real(real_genes, real_labels, lg, ll)
        margins.append(wle_local - wle_combined)
        if wle_combined <= wle_local:
            wins += 1
    assert wins >= 8, f"combined won only {wins}/10 (margins {margins})"
    report(10, f"combined preprocessing won {wins}/10 skewed trials "
               f"(mean margin {np.mean(margins):+.4f})")
