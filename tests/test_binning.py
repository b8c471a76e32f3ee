import numpy as np
import pytest

import clear_reference as ref
from conftest import indicator, no_rows, open_matrix, reconstruct, run3, shared, shared_matrix, sort_rows

from silosynth import fixedpoint as fx
from silosynth.binning import (
    bin_columns,
    bin_train,
    bin_with_cuts,
    compute_bin_means,
    compute_quantiles,
    inv_bin,
)
from silosynth.fixedpoint import FixedPointConfig
from silosynth.marginals import scaled_onehots_steps
from silosynth.pipeline import fold_plan, kfold_split
from silosynth.runtime import run_parties
from silosynth.sharing import ShareMatrix


def bin_with_means(p, matrix):
    """Binning of a dataset and its bin means, as the publish path computes them."""
    binned, cuts, _ = bin_train(p, matrix, no_rows(matrix))
    return binned, cuts, compute_bin_means(p, p.run(scaled_onehots_steps(p, binned))[0], matrix.genes(), cuts)


def run_bin_train(genes, labels, tag):
    mats = shared_matrix(fx.encode(genes), labels, tag)

    def body(p):
        return bin_with_means(p, mats[p.pid - 1])

    results, parties = run3(body)
    binned = reconstruct([r[0].data for r in results])[0]
    cuts = reconstruct([r[1] for r in results])[0]
    means = reconstruct([r[2] for r in results])[0]
    # per-bin row counts (d, 4), counted from the opened bins
    counters = (binned[:, :-1, None] == np.arange(4)).sum(axis=0).astype(np.uint64)
    return binned, cuts, means, counters, results, parties


def test_quantiles_hand_example():
    vals = fx.encode(np.array([[10.0], [20.0], [30.0], [40.0], [50.0]]))
    shares = shared(vals, 20)

    def body(p):
        s = sort_rows(p, shares[p.pid - 1])
        return compute_quantiles(p, s[None], [5])

    results, _ = run3(body)
    cuts = fx.decode(reconstruct(results)[0])
    assert list(cuts[0]) == [20.0, 30.0, 40.0]


def test_quantiles_constant_column():
    vals = fx.encode(np.full((4, 1), 7.5))
    shares = shared(vals, 21)

    def body(p):
        return compute_quantiles(p, shares[p.pid - 1][None], [4])

    results, _ = run3(body)
    cuts = fx.decode(reconstruct(results)[0])
    assert list(cuts[0]) == [7.5, 7.5, 7.5]


def test_quantile_interpolation_two_values():
    vals = fx.encode(np.array([[0.0], [100.0]]))
    shares = shared(vals, 22)

    def body(p):
        return compute_quantiles(p, shares[p.pid - 1][None], [2])

    results, _ = run3(body)
    cuts = fx.decode(reconstruct(results)[0])
    assert cuts[0][1] == 50.0  # median of {0,100} interpolates to 50


def test_quantiles_degenerate_rows():
    vals = fx.encode(np.array([[1.0]]))
    shares = shared(vals, 23)

    def body(p):
        return compute_quantiles(p, shares[p.pid - 1][None], [1])

    with pytest.raises(Exception):
        run3(body)


def test_bin_values_against_cut_semantics():
    # cuts (20,30,40): 10 -> 0; 30 -> 2 (strict less); 50 -> 3
    cuts_words = fx.encode(np.array([[20.0, 30.0, 40.0]]))
    vals = fx.encode(np.array([[10.0], [30.0], [50.0]]))
    sc, sv = shared(cuts_words, 24), shared(vals, 25)

    def body(p):
        return bin_columns(p, sv[p.pid - 1], sc[p.pid - 1][None], np.zeros(3, dtype=np.int64))

    results, _ = run3(body)
    got = reconstruct(results)
    assert list(got[:, 0]) == [0, 2, 3]


def test_bin_train_matches_fixedpoint_oracle(rng):
    genes = rng.normal(0, 2.0, size=(40, 3))
    labels = rng.integers(0, 5, size=40)
    binned, cuts, means, counters, _, _ = run_bin_train(genes, labels, 26)
    want_binned, want_cuts, want_means, want_ctr = ref.bin_dataset_fx(fx.encode(genes))
    assert np.array_equal(binned[:, :3], want_binned)
    assert np.array_equal(cuts, want_cuts)
    assert np.array_equal(means, want_means)
    assert np.array_equal(counters.astype(np.int64), want_ctr)
    assert np.array_equal(binned[:, 3], labels.astype(np.uint64))


def test_bin_means_hand_example():
    # both values land in bin 0 of their constant column: mean 15, ctr 2 for bin 0
    genes = np.array([[10.0], [20.0]])
    labels = np.array([0, 1])
    _, _, means, counters, _, _ = run_bin_train(genes, labels, 27)
    got = fx.decode(means)
    # cuts of {10,20}: (12.5, 15, 17.5): bins -> 10:0, 20:3
    assert counters[0, 0] == 1 and counters[0, 3] == 1
    assert got[0, 0] == 10.0 and abs(got[0, 3] - 20.0) <= 2**-14


def test_counters_partition_rows(rng):
    genes = rng.normal(0, 1, size=(30, 4))
    labels = rng.integers(0, 5, size=30)
    _, _, _, counters, _, _ = run_bin_train(genes, labels, 28)
    assert np.all(counters.sum(axis=1) == 30)


def test_bin_monotone(rng):
    genes = np.sort(rng.normal(0, 3, size=(25, 1)), axis=0)
    labels = np.zeros(25, dtype=np.int64)
    binned, _, _, _, _, _ = run_bin_train(genes, labels, 29)
    bins = binned[:, 0].astype(np.int64)
    assert np.all(np.diff(bins) >= 0)


def test_bin_test_with_train_cuts(rng):
    genes = rng.normal(0, 2, size=(20, 2))
    labels = rng.integers(0, 5, size=20)
    test_genes = np.vstack([genes[3], genes[7], rng.normal(0, 2, size=2)])
    test_labels = np.array([labels[3], labels[7], 0])
    train_mats = shared_matrix(fx.encode(genes), labels, 30)
    test_mats = shared_matrix(fx.encode(test_genes), test_labels, 31)

    def body(p):
        return bin_train(p, train_mats[p.pid - 1], test_mats[p.pid - 1])[2]

    results, parties = run3(body)
    got = open_matrix(results)
    train_binned, _, _, _, _, _ = run_bin_train(genes, labels, 30)
    # identical rows get identical bin vectors
    assert np.array_equal(got[0, :2], train_binned[3, :2])
    assert np.array_equal(got[1, :2], train_binned[7, :2])
    # held-out rows add no sort traffic: the sort entry is that of the training rows alone
    _, train_only = run3(lambda p: bin_train(p, train_mats[p.pid - 1], no_rows(train_mats[p.pid - 1])))
    for with_test, alone in zip(parties, train_only):
        got, want = with_test.ledger["sort"], alone.ledger["sort"]
        assert want.rounds > 0
        assert (got.bytes_sent, got.messages_sent, got.rounds) == \
            (want.bytes_sent, want.messages_sent, want.rounds)


def loop_batches(genes, labels, tag, k=3):
    """A first loop's batches of one dataset: K training folds with the full
    data after them, and the K test folds, padded per matrix."""
    mats = shared_matrix(fx.encode(genes), labels, tag)
    plan = fold_plan(5, 0, genes.shape[0], k)
    return plan, [kfold_split(m, plan, [np.arange(genes.shape[0])]) for m in mats]


def test_bin_test_ledger_is_two_lt_one_select_one_b2a_per_cell(rng):
    """Transcript check: binning a loop's training folds, full data and test
    folds with their cuts is one call of two lt, one select and one two-lane
    b2a_sum over the data cells only (padding rows are never compared):
    20 rounds, and no sort."""
    from silosynth.circuits import b2a_sum, select
    from silosynth.primitives import lt

    genes = rng.normal(0, 2, size=(10, 2))
    labels = rng.integers(0, 5, size=10)
    plan, split = loop_batches(genes, labels, 32)
    enc = fx.encode(genes)
    train_idx = [t for t, _ in plan] + [np.arange(10)]
    cuts_clear = np.stack([np.stack([ref.quantile_cuts_fx(enc[idx, g]) for g in range(2)])
                           for idx in train_idx])
    cut_shares = shared(cuts_clear, 33)

    def body_bin(p):
        with p.protocol("adhoc"):
            return bin_with_cuts(p, list(split[p.pid - 1]), cut_shares[p.pid - 1])

    results, parties_bin = run3(body_bin)
    train = reconstruct([r[0].data for r in results])
    test = reconstruct([r[1].data for r in results])
    for j, idx in enumerate(train_idx):
        assert np.array_equal(train[j, : idx.size, :2], ref.clear_bin_test(enc[idx], cuts_clear[j]))
    for j, (_, idx) in enumerate(plan):
        assert np.array_equal(test[j, : idx.size, :2], ref.clear_bin_test(enc[idx], cuts_clear[j]))

    cells = (sum(idx.size for idx in train_idx) + 10, 2)     # 7 + 7 + 6 + 10 training, 10 test rows
    x = shared(fx.encode(rng.normal(size=cells)), 34)
    y = shared(fx.encode(rng.normal(size=cells)), 35)

    def body_lt(p):
        with p.protocol("adhoc"):
            b = lt(p, x[p.pid - 1], y[p.pid - 1])
            c = lt(p, x[p.pid - 1], select(p, b, x[p.pid - 1], y[p.pid - 1]))
            b2a_sum(p, [b, c], [2, 1])

    _, parties_lt = run3(body_lt)
    for pb, pl in zip(parties_bin, parties_lt):
        got = pb.ledger["adhoc"]
        want = pl.ledger["adhoc"]
        assert (got.bytes_sent, got.messages_sent, got.rounds) == \
            (want.bytes_sent, want.messages_sent, want.rounds)
        assert got.rounds == 20
        assert "sort" not in pb.ledger


def test_bin_train_with_full_batch_and_test_folds_matches_mirror(rng):
    """One bin_train call on a first loop's batches equals clear_bin_train on
    every training fold and the full data, and clear_bin_test on every test
    fold with its fold's cuts; outside the sort it costs 30 rounds
    (quantiles 10, the one binning call 20)."""
    genes = rng.normal(0, 2, size=(11, 3))
    labels = rng.integers(0, 5, size=11)
    plan, split = loop_batches(genes, labels, 41)

    def body(p):
        return bin_train(p, *split[p.pid - 1])

    results, parties = run3(body)
    train = reconstruct([r[0].data for r in results])
    cuts = reconstruct([r[1] for r in results])
    test = reconstruct([r[2].data for r in results])
    enc = fx.encode(genes)
    for j, idx in enumerate([t for t, _ in plan] + [np.arange(11)]):
        want_binned, want_cuts, _ = ref.clear_bin_train(enc[idx], compute_means=False)
        assert np.array_equal(train[j, : idx.size, :3], want_binned)
        assert np.array_equal(train[j, : idx.size, 3], labels[idx].astype(np.uint64))
        assert np.array_equal(cuts[j], want_cuts)
    for j, (_, idx) in enumerate(plan):
        assert np.array_equal(test[j, : idx.size, :3], ref.clear_bin_test(enc[idx], cuts[j]))
    assert all(p.ledger["bin"].rounds == 30 for p in parties)


def test_bin_test_empty_split():
    genes = np.zeros((0, 2))
    labels = np.zeros(0, dtype=np.int64)
    test_mats = shared_matrix(fx.encode(genes), labels, 36)
    cut_shares = shared(fx.encode(np.zeros((1, 2, 3))), 37)

    def body(p):
        return bin_with_cuts(p, [test_mats[p.pid - 1]], cut_shares[p.pid - 1])[0]

    results, _ = run3(body)
    assert open_matrix(results).shape == (0, 3)


def debin(p, binned, means):
    """The binned genes' 0/1 one-hots, built on shares (the enclave hands
    the publish path its own), de-binned."""
    return inv_bin(p, indicator(p, binned.genes(), 4).map(np.moveaxis, 0, -1), means)


def onehots(bins):
    """Cleartext 0/1 one-hots (..., 4) of integer bins."""
    return (np.asarray(bins)[..., None] == np.arange(4)).astype(np.uint64)


def test_inv_bin_selection_and_roundtrip(rng):
    genes = rng.normal(0, 2, size=(30, 3))
    labels = rng.integers(0, 5, size=30)
    mats = shared_matrix(fx.encode(genes), labels, 38)

    def body(p):
        binned, cuts, means = bin_with_means(p, mats[p.pid - 1])
        return debin(p, binned, means), means

    results, _ = run3(body)
    got = reconstruct([r[0] for r in results])[0]
    means = reconstruct([r[1] for r in results])[0]
    want_binned, _, want_means, _ = ref.bin_dataset_fx(fx.encode(genes))
    assert np.array_equal(means, want_means)
    for g in range(3):
        want_cells = want_means[g][want_binned[:, g].astype(np.int64)]
        assert np.array_equal(got[:, g], want_cells)


def test_inv_bin_constant_column_roundtrip():
    genes = np.full((6, 1), 3.25)
    labels = np.zeros(6, dtype=np.int64)
    mats = shared_matrix(fx.encode(genes), labels, 39)

    def body(p):
        binned, cuts, means = bin_with_means(p, mats[p.pid - 1])
        return debin(p, binned, means)

    results, _ = run3(body)
    got = fx.decode(reconstruct(results)[0])
    assert np.all(np.abs(got[:, 0] - 3.25) <= 2**-14)


def test_inv_bin_picks_each_one_hots_mean(rng):
    """inv_bin returns means[k, j, b] word for word at every cell (k, i, j)
    whose one-hot marks bin b: random one-hots over K = 3 batches of 7 rows
    and 4 genes, with random means and means one ulp inside the encodable
    limit, 2^62, of either sign."""
    bins = rng.integers(0, 4, size=(3, 7, 4))
    means = fx.encode(rng.normal(0.0, 50.0, size=(3, 4, 4)))
    top = (1 << 62) - 1
    means[0] = fx.to_u64(np.array([[top, -top, top - 1, 1 - top]] * 4))
    means[1, :2] = fx.to_u64(np.array([-top, top, 0, -1]))
    so, sm = shared(onehots(bins), 51), shared(means, 52)

    def body(p):
        out = inv_bin(p, so[p.pid - 1], sm[p.pid - 1])
        return out, (p.ledger["inv_bin"].rounds, p.ledger["inv_bin"].bytes_sent)

    results, _ = run3(body)
    want = np.take_along_axis(means[:, None], bins[..., None], axis=3)[..., 0]    # (K, N, d)
    assert np.array_equal(reconstruct([r[0] for r in results]), want)
    assert all(r[1] == (1, bins.size * 8) for r in results)


def test_bin_means_and_inv_bin_cost_pinned(rng):
    """Rounds and bytes per party of the bin means and the de-binning on
    K = 2 batches of 9 (7 data) rows and 3 genes, 54 cells.

    compute_bin_means, from scaled one-hots built outside its scope: one
    matmul (1, 24 words), one exact division of sums, counts and midpoints
    (10, 60 x 13 words), then div_fx. Its lookup of the 24 counts in the
    table of counts 0..9: their bits (8, 24 x 8 words), the AND of 4
    pattern words (2, 24 x 3) and one b2a_sum over 10 lanes of the empty bit
    and the reciprocal (2, 24 x 12). Its three products, the first with the
    empty bit's fallback beside it (33, 48 + 24 x 13 + 2 x 24 x 14 words):
    56 rounds, 2,388 words.
    inv_bin: one matmul of the cells' one-hots with the means (1, 54 words).
    """
    rows = np.array([9, 7])
    binned = np.concatenate([rng.integers(0, 4, size=(2, 9, 3)), rng.integers(0, 5, size=(2, 9, 1))], axis=2)
    bins = [ShareMatrix(s, 3, rows) for s in shared(binned, 42)]
    originals = shared(fx.encode(rng.normal(size=(2, 9, 3))), 43)
    cuts = shared(fx.encode(np.sort(rng.normal(size=(2, 3, 3)), axis=2)), 44)
    means = shared(fx.encode(rng.normal(size=(2, 3, 4))), 45)
    cells = shared(onehots(rng.integers(0, 4, size=(2, 9, 3))), 46)

    def body(p):
        i = p.pid - 1
        bin_onehots = p.run(scaled_onehots_steps(p, bins[i]))[0]
        with p.protocol("bin"):
            compute_bin_means(p, bin_onehots, originals[i], cuts[i])
        inv_bin(p, cells[i], means[i])

    _, parties = run3(body)
    for p in parties:
        cost = {label: (p.ledger[label].rounds, p.ledger[label].bytes_sent)
                for label in ("bin", "inv_bin")}
        assert cost == {"bin": (56, 2388 * 8), "inv_bin": (1, 54 * 8)}


@pytest.mark.parametrize("sign", [1, -1])
def test_bin_means_and_inv_bin_at_the_sum_bound(sign):
    """At frac_bits 8, 255 rows (the most the preflight admits) of genes one
    ulp inside the encode limit all fall in bin 3: its sum is
    255 (2^54 - 1), about 2^62, past the 2^(63 - f) words where the bin
    means' division wraps, so bin 3's mean is not the genes' value (at
    sign 1 it reads 36,028,522,141,057,023 where the true mean word is
    18,014,398,509,481,983). compute_bin_means still equals the cleartext
    mirror and inv_bin its table lookup, word for word, for every bin."""
    f = 8
    n, top = (1 << f) - 1, sign * ((1 << (62 - f)) - 1)
    genes = np.full((n, 2), top, dtype=np.int64).view(np.uint64)
    cuts = np.stack([ref.quantile_cuts_fx(genes[:, g], f) for g in range(2)])
    binned = np.stack([ref.bin_with_cuts_fx(genes[:, g], cuts[g]) for g in range(2)], axis=1)
    want = np.stack([ref.bin_means_fx(binned[:, g], genes[:, g], cuts[g], f)[0] for g in range(2)])
    assert np.all(binned == 3)
    table = np.arange(2 * n).reshape(n, 2) % 4
    sg, sb, sc = shared(genes[None], 47), shared_matrix(binned, np.zeros(n, np.int64), 48), shared(cuts[None], 49)
    cells = shared(onehots(table[None]), 50)

    def body(p):
        i = p.pid - 1
        means = compute_bin_means(p, p.run(scaled_onehots_steps(p, sb[i]))[0], sg[i], sc[i])
        return means, inv_bin(p, cells[i], means)

    results, _ = run_parties(body, master_seed=7, fp=FixedPointConfig(f))
    assert np.array_equal(reconstruct([r[0] for r in results])[0], want)
    debinned = reconstruct([r[1] for r in results])[0]
    for g in range(2):
        assert np.array_equal(debinned[:, g], want[g][table[:, g]])


def test_secure_vs_float_oracle_bins_agree_mostly(rng):
    # float sanity oracle: cell-level agreement except possible grid-boundary ties
    genes = rng.normal(0, 1.5, size=(60, 4))
    labels = rng.integers(0, 5, size=60)
    binned, _, _, _, _, _ = run_bin_train(genes, labels, 40)
    float_bins = ref.float_quantile_bins(genes)
    agree = (binned[:, :4].astype(np.int64) == float_bins).mean()
    assert agree > 0.99
