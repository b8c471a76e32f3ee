import numpy as np
import pytest

import clear_reference as ref
from conftest import open_matrix, reconstruct, run3, shared, shared_matrix

from silosynth import binning, marginals, pipeline
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


def small_config(**kw):
    base = dict(k_folds=2, max_loops=2, hyperparams=(10, 15), eps_s=5.0, delta_s=1e-5,
                seed=7, n_custodians=2, lr_epochs=10)
    base.update(kw)
    cfg = PipelineConfig(**base)
    cfg.validate()
    return cfg


def run_full(config, datasets, thresholds):
    """Every party's RunResult and Party of one in-process run, custodian
    uploads included, at the config's frac_bits."""
    uploads = [
        custodian_components(g, l, thresholds[c], config.frac_bits, config.seed, c)
        for c, (g, l) in enumerate(datasets)
    ]
    fingerprint = config_fingerprint(canonical_text(config))
    n_genes = datasets[0][0].shape[1]

    def body(party):
        setup_handshake(party, fingerprint)
        combined, thr = ingest_all(party, [u[0][party.pid - 1] for u in uploads],
                                   [u[1][party.pid - 1] for u in uploads], n_genes)
        return run_pipeline(party, combined, ThresholdSet(thr), config)

    results, parties = run_parties(body, config.seed, FixedPointConfig(config.frac_bits), timeout=600)
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
    train, test = kfold_split(mats[0], plan, ())
    # folds of 8/7/7 training and 3/4/4 test rows, padded to the longest
    assert list(train.rows) == [8, 7, 7] and list(test.rows) == [3, 4, 4]
    assert train.data.shape == (3, 8, 3) and test.data.shape == (3, 4, 3)
    opened = reconstruct([m.data for m in mats])[0]
    for j, (train_idx, test_idx) in enumerate(plan):
        got = reconstruct([kfold_split(m, plan, ())[1].data for m in mats])[j]
        assert np.array_equal(got[: len(test_idx)], opened[test_idx])
    assert list(train.mask.sum(axis=1)) == [8, 7, 7]
    # a fold without test rows (or with fewer than 2 training rows) is refused
    with pytest.raises(ValueError):
        kfold_split(mats[0], fold_plan(1, 0, 11, 12), ())


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


# per-custodian bars that decide every vote whatever the data: all met, or
# an accuracy floor above 1
VACUOUS, NO_ACCURACY = (1000.0, 0.0), (1000.0, 2.0)


def random_shape(rng):
    """A config, thresholds and a same-shape dataset generator drawn from rng:
    1-3 custodians of 3-14 rows each, 1-4 genes (tied in about a third of
    the shapes), f in {8, 12, 16, 20}, K in 2..6, either mode,
    synthetic_rows 0 or 7, noise scales from small to past the ring."""
    custodians, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    rows = [int(n) for n in rng.integers(3, 15, size=custodians)]
    tied = bool(rng.random() < 0.3)
    config = small_config(k_folds=int(rng.integers(2, 7)), frac_bits=int(rng.choice([8, 12, 16, 20])),
                          n_custodians=custodians, mode=str(rng.choice([pipeline.FIRST_PASS, EXHAUSTIVE])),
                          synthetic_rows=int(rng.choice([0, 7])), eps_s=float(rng.choice([5.0, 0.5, 1e-6])),
                          hyperparams=(3, 5), lr_epochs=2, seed=int(rng.integers(1 << 16)))
    thresholds = np.array([NO_ACCURACY if rng.random() < 0.2 else VACUOUS for _ in range(custodians)])

    def datasets():
        return [(rng.integers(-2, 3, size=(n, d)) * 0.75 if tied else rng.normal(0, 2, size=(n, d)),
                 rng.integers(0, 5, size=n)) for n in rows]
    return config, thresholds, rows, datasets


def test_random_shapes_match_mirror_and_keep_ledgers():
    """Both contracts over 25 shapes from a fixed seed. Each shape the
    preflight admits runs end to end and equals clear_pipeline byte for
    byte (8c); a second dataset of the same shape gives the same ledgers,
    seconds aside, and the same opening and reveal logs (7b). Each shape it
    refuses breaks the fold plan or the noise's ring bound, and no other
    shape does."""
    draw = np.random.default_rng(2026)
    ran = refused = published = 0
    for _ in range(25):
        config, thresholds, rows, datasets = random_shape(draw)
        n, k, f = sum(rows), config.k_folds, config.frac_bits
        d = datasets()[0][0].shape[1]
        sigma_q = marginals.calibrate(config.eps_s, config.delta_s, marginals.measurement_count(d))
        bad_folds = n // k < 1 or n - -(-n // k) < 2
        bad_noise = (n << 2 * f) + (6 << f) * sigma_q * (1 << f) >= 1 << 63
        if bad_folds or bad_noise:
            with pytest.raises(IngestionError, match="folds" if bad_folds else "sigma_q"):
                pipeline.preflight(rows, [d] * len(rows), config)
            refused += 1
            continue
        pipeline.preflight(rows, [d] * len(rows), config)
        runs = []
        for data in (datasets(), datasets()):
            results, parties = run_full(config, data, thresholds)
            clear = ref.clear_pipeline(data, thresholds, config)
            for r in results:
                assert (r.publish, r.h_selected, [(x.hyperparam, x.vote_bit) for x in r.loops]) == \
                    (clear["publish"], clear["h_selected"], clear["loops"])
                if r.publish:
                    assert r.synthetic.tobytes() == clear["synthetic"].tobytes()
            ledgers = [{label: {key: v for key, v in e.items() if key != "seconds"}
                        for label, e in p.ledger.snapshot().items()} for p in parties]
            runs.append((ledgers, [r.opening_log for r in results], [r.reveal_log for r in results]))
        assert runs[0] == runs[1], f"traffic depends on the data at {config}, rows {rows}"
        ran += 1
        published += results[0].publish
    assert ran >= 15 and refused and 0 < published < ran


def test_loop_lr_rounds_do_not_grow_with_folds(rng):
    """The enclave trains every fold's model inside its one step: evaluation
    (eval with its nested wle and acc) and the enclave step (sdg) take the
    same rounds for 2 and 3 folds, and no label's traffic depends on the
    epoch count."""
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    traffic = {}
    for k, epochs in ((2, 2), (3, 2), (3, 7)):
        config = small_config(k_folds=k, hyperparams=(10,), max_loops=1, lr_epochs=epochs)
        _, parties = run_full(config, datasets, thresholds)
        traffic[k, epochs] = [{label: (e["rounds"], e["bytes_sent"], e["messages_sent"])
                               for label, e in p.ledger.snapshot().items()} for p in parties]

    def rounds(run, labels):
        return [sum(ledger[label][0] for label in labels) for ledger in traffic[run]]

    for labels, want in ((("eval", "wle", "acc"), 32), (("sdg",), 2)):
        assert rounds((2, 2), labels) == rounds((3, 2), labels) == [want] * 3
    assert traffic[3, 2] == traffic[3, 7]


# (rounds, bytes sent) per party, summed over the ledger labels
PINNED_TINY_TRAFFIC = [(284, 575472), (284, 577320), (284, 575472)]
# each label's own rounds (nested labels excluded) at parties 1, 2 and 3
PINNED_TINY_ROUNDS = {
    "ingest": [1] * 3, "sort": [130] * 3, "bin": [76] * 3, "noisy_marg": [30] * 3,
    "sdg": [2] * 3, "eval": [20] * 3, "wle": [0] * 3, "acc": [12] * 3, "vote": [11] * 3,
    "inv_bin": [1] * 3, "publish": [1] * 3,
}


def test_tiny_run_traffic_pinned(rng):
    """Exact per-party rounds and bytes of a 2x12x3 run (K=2, 2 epochs), and
    every label's rounds at every party: any change to the protocol's round
    schedule or message sizes shows here, a schedule change under its own
    label."""
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, parties = run_full(config, datasets, thresholds)
    assert results[0].publish
    snaps = [p.ledger.snapshot() for p in parties]
    totals = [(sum(e["rounds"] for e in s.values()), sum(e["bytes_sent"] for e in s.values())) for s in snaps]
    assert totals == PINNED_TINY_TRAFFIC
    assert {label: [s[label]["rounds"] for s in snaps] for label in snaps[0]} == PINNED_TINY_ROUNDS


def test_publish_path_rounds_pinned(rng, monkeypatch):
    """The publish path of the 2x12x3 run takes 64 rounds at every party:
    the full data's one-hots 2, its counts and bin sums in one round, the
    noise draw 2 and one truncation 10 for the noisy marginals and the bin
    means (15 under noisy_marg), the bin means' division 46 (bin), and the
    generation, de-binning and reveal 1 each."""
    real, costs = pipeline.publish_path, {}

    def spy(party, *args):
        before = party.ledger.snapshot()
        out = real(party, *args)
        costs[party.pid] = {label: e["rounds"] - before.get(label, {"rounds": 0})["rounds"]
                            for label, e in party.ledger.snapshot().items()
                            if e["rounds"] != before.get(label, {"rounds": 0})["rounds"]}
        return out

    monkeypatch.setattr(pipeline, "publish_path", spy)
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, _ = run_full(config, two_datasets(rng, n_each=12), np.array([[1000.0, 0.0], [1000.0, 0.0]]))
    assert results[0].publish
    want = {"noisy_marg": 15, "bin": 46, "sdg": 1, "inv_bin": 1, "publish": 1}
    assert costs == {1: want, 2: want, 3: want} and sum(want.values()) == 64


def spy_sorts(monkeypatch):
    """Record the per-batch row counts of every sort_columns call."""
    calls = []
    real = binning.sort_columns

    def spy(party, matrix, rows, read):
        if party.pid == 1:
            calls.append(list(rows))
        return real(party, matrix, rows, read)

    monkeypatch.setattr(binning, "sort_columns", spy)
    return calls


def test_first_pass_publish_sorts_once(rng, monkeypatch):
    """A run that publishes on loop 1 sorts once: the two 12-row training
    folds (10 layers each) beside the full 24 rows (15 layers), so the sort
    label is 15 layers of 8 rounds between the conversions to bits (8) and
    back (2)."""
    calls = spy_sorts(monkeypatch)
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, parties = run_full(config, datasets, thresholds)
    assert results[0].publish
    assert calls == [[12, 12, 24]]
    assert all(p.ledger.entry("sort").rounds == 8 + 8 * 15 + 2 for p in parties)


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
        assert p.ledger.entry("sort").rounds == (8 + 8 * 15 + 2) + (8 + 8 * 10 + 2)
        assert p.ledger.entry("bin").rounds == 2 * 30      # quantiles and binning only
        assert not {"inv_bin", "publish"} & set(p.ledger.entries)


def test_publish_builds_scaled_onehots_once_for_both_readers(rng, monkeypatch):
    """A first-pass run that publishes on loop 1 builds the scaled one-hots
    once per loop (its 2 training folds) and once at publish (the full
    data), where the bin means and the marginals both read them; every
    build is counted under noisy_marg, so none runs inside compute_bin_means
    (which the publish path counts under bin)."""
    calls = []
    real = marginals.scaled_onehots

    def spy(party, matrix):
        if party.pid == 1:
            calls.append((party.current_label, matrix.folds))
        return real(party, matrix)

    for module in (marginals, binning, pipeline):
        monkeypatch.setattr(module, "scaled_onehots", spy, raising=False)
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(k_folds=2, hyperparams=(10,), max_loops=1, lr_epochs=2)
    results, _ = run_full(config, datasets, thresholds)
    assert results[0].publish
    assert calls == [("noisy_marg", 2), ("noisy_marg", 1)]


@pytest.mark.parametrize("mode", [pipeline.FIRST_PASS, EXHAUSTIVE])
def test_negative_cap_fails_every_loop_like_the_mirror(rng, mode):
    """A workload-error cap below 0, which the CLI accepts, fails every loop
    in both modes: the votes equal clear_pipeline's and nothing is published."""
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[-1.0, 0.0], [1000.0, 0.0]])
    config = small_config(hyperparams=(10, 15), lr_epochs=2, mode=mode)
    results, _ = run_full(config, datasets, thresholds)
    clear = ref.clear_pipeline(datasets, thresholds, config)
    assert (clear["publish"], clear["loops"]) == (False, [(10, 0), (15, 0)])
    for r in results:
        assert [(x.hyperparam, x.vote_bit) for x in r.loops] == clear["loops"]
        assert (r.publish, r.h_selected, r.synthetic) == (False, None, None)


@pytest.mark.parametrize("mode", [pipeline.FIRST_PASS, EXHAUSTIVE])
def test_publish_after_failed_first_loop_reads_its_bins(rng, monkeypatch, mode):
    """When loop 1 fails and loop 2 passes, the run publishes loop 2's
    hyperparameter from loop 1's full-data bins: no sort at publish, and
    every published gene value is one of its gene's four bin means. Each
    party's first vote runs and is then reported as 0."""
    calls = spy_sorts(monkeypatch)
    real, voted = pipeline.secret_vote, set()

    def vote(party, *args):
        bit = real(party, *args)
        if party.pid in voted:
            return bit
        voted.add(party.pid)
        return 0

    monkeypatch.setattr(pipeline, "secret_vote", vote)
    datasets = two_datasets(rng, n_each=12)
    thresholds = np.array([[1000.0, 0.0], [1000.0, 0.0]])
    config = small_config(hyperparams=(10, 15), lr_epochs=2, mode=mode)
    results, _ = run_full(config, datasets, thresholds)
    assert calls == [[12, 12, 24], [12, 12]]
    _, _, means, _ = ref.bin_dataset_fx(np.concatenate([fx.encode(g, config.frac_bits) for g, _ in datasets]),
                                        config.frac_bits)
    opened = ["vote", "vote"] + ["h-select"] * (mode == EXHAUSTIVE) + ["publish"]
    for r in results:
        assert [(x.hyperparam, x.vote_bit) for x in r.loops] == [(10, 0), (15, 1)]
        assert (r.publish, r.h_selected) == (True, 15)
        assert [label for label, _ in r.opening_log] == opened
        for g in range(3):
            assert set(r.synthetic[:, g].tolist()) <= set(means[g].tolist())
