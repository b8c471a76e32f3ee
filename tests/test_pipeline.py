import numpy as np
import pytest

import clear_reference as ref
from conftest import open_matrix, run3, shared, shared_matrix

from silosynth import binning
from silosynth import fixedpoint as fx
from silosynth.config import canonical_text
from silosynth.fixedpoint import FixedPointConfig
from silosynth.ingest import IngestionError, custodian_components, ingest_all
from silosynth.pipeline import (
    EXHAUSTIVE,
    PipelineConfig,
    ThresholdSet,
    fold_plan,
    kfold_split,
    run_pipeline,
    secret_vote,
)
from silosynth.runtime import ProtocolAbort, config_fingerprint, run_parties, setup_handshake
from silosynth.sharing import reconstruct


def small_config(**kw):
    base = dict(k_folds=2, max_loops=2, hyperparams=(10, 15), eps_s=5.0, delta_s=1e-5,
                seed=7, n_custodians=2, lr_epochs=10)
    base.update(kw)
    cfg = PipelineConfig(**base)
    cfg.validate()
    return cfg


def run_full(config, datasets, thresholds, seed=None):
    uploads = [
        custodian_components(g, l, thresholds[c], 16, config.seed, c)
        for c, (g, l) in enumerate(datasets)
    ]
    fingerprint = config_fingerprint(canonical_text(config))
    n_genes = datasets[0][0].shape[1]

    def body(party):
        setup_handshake(party, fingerprint)
        combined, thr = ingest_all(party, [u[0][party.pid - 1] for u in uploads],
                                   [u[1][party.pid - 1] for u in uploads], n_genes)
        return run_pipeline(party, combined, ThresholdSet(thr), config)

    results, parties = run_parties(body, config.seed, FixedPointConfig(16), timeout=600)
    return results, parties


def two_datasets(rng, n_each=20, d=3):
    out = []
    for _ in range(2):
        out.append((rng.normal(0, 2, size=(n_each, d)), rng.integers(0, 5, size=n_each)))
    return out


def test_ingest_stacks_custodians_in_one_round(rng):
    """Two custodians' uploads come out as one batch-of-one matrix, rows in
    upload order, and thresholds (2, 2): one ingest round and one message
    per party."""
    datasets = [(rng.normal(0, 2, size=(n, 2)), rng.integers(0, 5, size=n)) for n in (3, 4)]
    thresholds = rng.normal(0, 1, size=(2, 2))
    uploads = [custodian_components(g, l, thresholds[c], 16, 5, c) for c, (g, l) in enumerate(datasets)]

    def body(p):
        return ingest_all(p, [u[0][p.pid - 1] for u in uploads], [u[1][p.pid - 1] for u in uploads], 2)

    results, parties = run3(body)
    combined = open_matrix([r[0] for r in results])
    assert combined.shape == (7, 3) and results[0][0].rows.tolist() == [7]
    assert np.array_equal(combined, np.vstack([sum(u[0]) for u in uploads]))
    thr = reconstruct([r[1] for r in results])
    assert np.array_equal(thr, np.stack([sum(u[1]) for u in uploads]))
    assert np.array_equal(fx.decode(thr), fx.decode(fx.encode(thresholds)))
    for p in parties:
        entry = p.ledger.entry("ingest")
        assert (entry.rounds, entry.messages_sent) == (1, 1)


def test_ingest_single_custodian_identity(rng):
    comp_data, comp_thr = custodian_components(rng.normal(size=(5, 2)), rng.integers(0, 5, size=5),
                                               [0.5, 0.25], 16, 5, 0)

    def body(p):
        return ingest_all(p, [comp_data[p.pid - 1]], [comp_thr[p.pid - 1]], 2)

    results, _ = run3(body)
    assert np.array_equal(open_matrix([r[0] for r in results]), sum(comp_data))
    assert np.array_equal(reconstruct([r[1] for r in results]), sum(comp_thr)[None])


def test_ingest_refuses_gene_count_mismatch(rng):
    uploads = [custodian_components(rng.normal(size=(3, d)), rng.integers(0, 5, size=3), [0.0, 0.0], 16, 5, c)
               for c, d in enumerate((2, 4))]

    def body(p):
        return ingest_all(p, [u[0][p.pid - 1] for u in uploads], [u[1][p.pid - 1] for u in uploads], 2)

    with pytest.raises(ProtocolAbort, match=r"gene count: \[2, 4\]") as info:
        run3(body)
    assert isinstance(info.value.__cause__, IngestionError)


def test_fold_plan_partitions():
    plan = fold_plan(42, 0, 10, 5)
    assert all(len(test) == 2 for _, test in plan)
    all_rows = np.sort(np.concatenate([test for _, test in plan]))
    assert np.array_equal(all_rows, np.arange(10))
    for train, test in plan:
        assert len(train) == 8
        assert not set(train) & set(test)
    # same seed, same plan; different loop, different plan
    again = fold_plan(42, 0, 10, 5)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(plan, again))
    other = fold_plan(42, 1, 10, 5)
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(plan, other))


def test_kfold_split_bounds(rng):
    cells = rng.integers(0, 4, (11, 2)).astype(np.uint64)
    mats = shared_matrix(cells, rng.integers(0, 5, 11), 125)
    plan = fold_plan(1, 0, 11, 3)
    train, test = kfold_split(mats[0], plan)
    # folds of 8/7/7 training and 3/4/4 test rows, padded to the longest
    assert list(train.rows) == [8, 7, 7] and list(test.rows) == [3, 4, 4]
    assert train.data.shape == (3, 8, 3) and test.data.shape == (3, 4, 3)
    opened = reconstruct([m.data for m in mats])[0]
    for j, (train_idx, test_idx) in enumerate(plan):
        got = reconstruct([kfold_split(m, plan)[1].data for m in mats])[j]
        assert np.array_equal(got[: len(test_idx)], opened[test_idx])
    assert list(train.mask.sum(axis=1)) == [8, 7, 7]
    # a fold without test rows (or with fewer than 2 training rows) is refused
    with pytest.raises(ValueError):
        kfold_split(mats[0], fold_plan(1, 0, 11, 12))


def test_secret_vote_boundary_equality():
    # metric sums exactly equal to K-scaled thresholds count as met
    # (grid-representable threshold values so K*T is exact)
    k = 4
    wle_sum = fx.encode(np.array(1.0))  # K*T_w with T_w = 0.25
    acc_sum = fx.encode(np.array(2.0))  # K*T_a with T_a = 0.5
    sw = shared(wle_sum, 126)
    sa = shared(acc_sum, 127)
    thr = fx.encode(np.array([[0.25, 0.5], [0.5, 0.125]]))
    st = shared(thr, 128)

    def body(p):
        return secret_vote(p, sw[p.pid - 1], sa[p.pid - 1],
                           ThresholdSet(st[p.pid - 1]), k)

    results, parties = run3(body)
    assert results == [1, 1, 1]
    for p in parties:
        assert p.opening_log == [("vote", 1)]


def test_secret_vote_one_unmet_custodian():
    k = 2
    wle_sum = fx.encode(np.array(1.0))
    acc_sum = fx.encode(np.array(1.0))
    sw, sa = shared(wle_sum, 129), shared(acc_sum, 130)
    # custodian 2 demands accuracy sum >= 2*0.9 = 1.8 > 1.0: fails
    thr = fx.encode(np.array([[5.0, 0.0], [5.0, 0.9]]))
    st = shared(thr, 131)

    def body(p):
        return secret_vote(p, sw[p.pid - 1], sa[p.pid - 1],
                           ThresholdSet(st[p.pid - 1]), k)

    results, parties = run3(body)
    assert results == [0, 0, 0]
    for p in parties:
        assert p.opening_log == [("vote", 1)]  # nothing else opened


@pytest.mark.parametrize("n_cust", [1, 2, 3])
def test_secret_vote_rounds(n_cust):
    """The vote stays boolean: one lt over the 2c bars (8 rounds), an AND
    tree over the negated fail bits (ceil(log2 2c) rounds) and one opening."""
    sw, sa = shared(fx.encode(np.array(1.0)), 132), shared(fx.encode(np.array(1.0)), 133)
    st = shared(fx.encode(np.tile([[5.0, 0.0]], (n_cust, 1))), 134 + n_cust)

    def body(p):
        return secret_vote(p, sw[p.pid - 1], sa[p.pid - 1], ThresholdSet(st[p.pid - 1]), 2)

    results, parties = run3(body)
    assert results == [1, 1, 1]
    for p in parties:
        assert p.ledger.entry("vote").rounds == 8 + (2 * n_cust - 1).bit_length() + 1
        assert p.opening_log == [("vote", 1)]


def test_vacuous_thresholds_publish_first_loop(rng):
    datasets = two_datasets(rng)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config()
    results, _ = run_full(config, datasets, thresholds)
    r = results[0]
    assert r.publish and r.h_selected == 10
    assert len(r.loops) == 1 and r.loops[0].vote_bit == 1
    assert r.synthetic is not None and r.synthetic.shape == (40, 4)


def test_unsatisfiable_thresholds_no_publish(rng):
    datasets = two_datasets(rng)
    thresholds = np.array([[1000.0, 2.0], [1000.0, 2.0]])  # accuracy > 1 impossible
    config = small_config()
    results, _ = run_full(config, datasets, thresholds)
    r = results[0]
    assert not r.publish
    assert r.synthetic is None
    assert len(r.loops) == min(config.max_loops, len(config.hyperparams))
    assert all(rec.vote_bit == 0 for rec in r.loops)
    # opening audit: exactly one vote bit per loop, nothing else
    assert r.opening_log == [("vote", 1)] * len(r.loops)


def test_loop_bound_respects_hyperparam_exhaustion(rng):
    datasets = two_datasets(rng, n_each=15)
    thresholds = np.array([[0.0, 2.0], [0.0, 2.0]])
    config = small_config(max_loops=10, hyperparams=(10, 15, 25))
    results, _ = run_full(config, datasets, thresholds)
    assert len(results[0].loops) == 3  # H exhausted before L


def test_published_rows_default_to_combined_length(rng):
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config()
    results, _ = run_full(config, datasets, thresholds)
    assert results[0].synthetic.shape[0] == 24
    # every revealed gene value is one of <= 4 distinct values per gene
    genes = fx.decode(results[0].synthetic[:, :3])
    for g in range(3):
        assert len(np.unique(genes[:, g])) <= 4


def test_parties_agree_on_decision_and_output(rng):
    datasets = two_datasets(rng, n_each=10)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1)
    results, _ = run_full(config, datasets, thresholds)
    assert all(r.publish == results[0].publish for r in results)
    for r in results[1:]:
        assert np.array_equal(r.synthetic, results[0].synthetic)
        assert r.opening_log == results[0].opening_log


def test_deterministic_across_runs(rng):
    datasets = two_datasets(rng, n_each=10)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1)
    r1, _ = run_full(config, datasets, thresholds)
    r2, _ = run_full(config, datasets, thresholds)
    assert np.array_equal(r1[0].synthetic, r2[0].synthetic)


def test_secure_matches_clear_pipeline(rng):
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10, 15), max_loops=2)
    results, _ = run_full(config, datasets, thresholds)
    clear = ref.clear_pipeline(datasets, thresholds, config)
    r = results[0]
    assert clear["publish"] == r.publish
    assert clear["h_selected"] == r.h_selected
    assert clear["loops"] == [(rec.hyperparam, rec.vote_bit) for rec in r.loops]
    assert np.array_equal(clear["synthetic"], r.synthetic)


def test_exhaustive_mode_tracks_best(rng):
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10, 15), max_loops=2, mode=EXHAUSTIVE)
    results, _ = run_full(config, datasets, thresholds)
    r = results[0]
    assert r.publish
    assert len(r.loops) == 2  # no early exit
    clear = ref.clear_pipeline(datasets, thresholds, config)
    assert clear["h_selected"] == r.h_selected
    assert np.array_equal(clear["synthetic"], r.synthetic)
    # exhaustive mode opens one extra value: the winning candidate index
    assert r.opening_log == [("vote", 1), ("vote", 1), ("h-select", 1), ("publish", r.synthetic.size)]


@pytest.mark.parametrize("k_folds", [3, 4])
@pytest.mark.parametrize("mode", ["first-pass", EXHAUSTIVE])
def test_unequal_folds_match_clear_pipeline(k_folds, mode):
    # 22 rows do not split evenly into 3 or 4 folds: train and test folds are
    # padded to the longest, and the padding must not reach any output
    datasets = two_datasets(np.random.default_rng(400 + k_folds), n_each=11)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=k_folds, hyperparams=(10, 15), max_loops=2, lr_epochs=3, mode=mode)
    results, _ = run_full(config, datasets, thresholds)
    clear = ref.clear_pipeline(datasets, thresholds, config)
    for r in results:
        assert (r.publish, r.h_selected) == (clear["publish"], clear["h_selected"])
        assert [(rec.hyperparam, rec.vote_bit) for rec in r.loops] == clear["loops"]
        assert r.synthetic.tobytes() == clear["synthetic"].tobytes()


def test_loop_lr_rounds_do_not_grow_with_folds(rng):
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    lr_rounds = {}
    for k in (2, 3):
        config = small_config(k_folds=k, hyperparams=(10,), max_loops=1, lr_epochs=2)
        _, parties = run_full(config, datasets, thresholds)
        lr_rounds[k] = [p.ledger.entry("lr").rounds for p in parties]
    assert lr_rounds[2] == lr_rounds[3]


# (rounds, bytes sent) per party, summed over the ledger labels
PINNED_TINY_TRAFFIC = [(967, 1057984), (967, 1059832), (967, 1057984)]


def test_tiny_run_traffic_pinned(rng):
    """Exact per-party rounds and bytes of a 2x12x3 run (K=2, 2 epochs): any
    change to the protocol's round schedule or message sizes shows here."""
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, parties = run_full(config, datasets, thresholds)
    assert results[0].publish
    snaps = [p.ledger.snapshot().values() for p in parties]
    totals = [(sum(e["rounds"] for e in s), sum(e["bytes_sent"] for e in s)) for s in snaps]
    assert totals == PINNED_TINY_TRAFFIC


def spy_sorts(monkeypatch):
    """Record the per-batch row counts of every sort_columns call."""
    calls = []
    real = binning.sort_columns

    def spy(party, matrix, rows=None, read=None):
        if party.pid == 1:
            calls.append(list(rows))
        return real(party, matrix, rows, read)

    monkeypatch.setattr(binning, "sort_columns", spy)
    return calls


def test_first_pass_publish_sorts_once(rng, monkeypatch):
    """A run that publishes on loop 1 sorts once: the two 12-row training
    folds (10 layers each) beside the full 24 rows (15 layers), so the sort
    label is 10 x 15 rounds."""
    calls = spy_sorts(monkeypatch)
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, parties = run_full(config, datasets, thresholds)
    assert results[0].publish
    assert calls == [[12, 12, 24]]
    assert all(p.ledger.entry("sort").rounds == 10 * 15 for p in parties)


def test_no_publish_run_pays_full_sort_in_first_loop(rng, monkeypatch):
    """A run that publishes nothing still sorts and bins the full data in its
    first loop (later loops sort only their folds) and never enters the
    publish path: no bin means, de-binning or reveal."""
    calls = spy_sorts(monkeypatch)
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 2.0], [1000.0, 2.0]])
    config = small_config(k_folds=2, hyperparams=(10, 15), max_loops=2, lr_epochs=2)
    results, parties = run_full(config, datasets, thresholds)
    assert not results[0].publish
    assert calls == [[12, 12, 24], [12, 12]]
    for p in parties:
        assert p.ledger.entry("sort").rounds == 10 * 15 + 10 * 10
        assert p.ledger.entry("bin").rounds == 2 * 30      # quantiles and binning only
        assert not {"inv_bin", "publish"} & set(p.ledger.entries)
