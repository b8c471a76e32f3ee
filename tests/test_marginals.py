import math

import numpy as np
import pytest

import clear_reference as ref
from conftest import indicator, reconstruct, reconstruct_xor, run3, shared, shared_matrix

from silosynth import fixedpoint as fx
from silosynth.fixedpoint import FixedPointConfig
from silosynth.marginals import (
    calibrate,
    cell_counts,
    COUNT_BITS,
    GENE_BITS,
    LABEL_BITS,
    marginal_counts,
    measurement_count,
    noisy_marginals,
    scaled_onehots,
    split_marginals,
)
from silosynth.runtime import run_parties
from silosynth.sharing import ShareMatrix


def test_indicator4_truth_table():
    vals = np.arange(4, dtype=np.uint64)
    shares = shared(vals, 50)

    def body(p):
        return indicator(p, shares[p.pid - 1], 4)

    results, _ = run3(body)
    table = reconstruct(results)  # (4 indicators, 4 domain points)
    assert np.array_equal(table, np.eye(4, dtype=np.uint64))


def test_indicator5_truth_table():
    vals = np.arange(5, dtype=np.uint64)
    shares = shared(vals, 51)

    def body(p):
        return indicator(p, shares[p.pid - 1], 5)

    results, _ = run3(body)
    table = reconstruct(results)
    assert np.array_equal(table, np.eye(5, dtype=np.uint64))


def test_indicators_partition_of_unity():
    vals4 = np.arange(4, dtype=np.uint64)
    vals5 = np.arange(5, dtype=np.uint64)
    s4, s5 = shared(vals4, 52), shared(vals5, 53)

    def body(p):
        return indicator(p, s4[p.pid - 1], 4), indicator(p, s5[p.pid - 1], 5)

    results, _ = run3(body)
    i4 = reconstruct([r[0] for r in results])
    i5 = reconstruct([r[1] for r in results])
    assert np.all(i4.sum(axis=0) == 1)
    assert np.all(i5.sum(axis=0) == 1)


def test_indicators_agree_with_equality_tests(rng):
    """Polynomial route equals four eq tests on every domain value, also on a
    (K, N, d) batch as batched binning passes it."""
    from silosynth.primitives import eq_zero

    for tag, vals4 in ((54, np.arange(4, dtype=np.uint64)),
                       (55, rng.integers(0, 4, size=(3, 7, 2)).astype(np.uint64))):
        s4 = shared(vals4, tag)

        def body(p):
            polys = indicator(p, s4[p.pid - 1], 4)
            eqs = [eq_zero(p, p.add_public(s4[p.pid - 1], fx.neg_const(b))) for b in range(4)]
            return polys, eqs

        results, _ = run3(body)
        polys = reconstruct([r[0] for r in results])
        assert polys.shape == (4,) + vals4.shape
        for b in range(4):
            eq_b = reconstruct_xor([r[1][b] for r in results])
            assert np.array_equal(polys[b], eq_b)


def marginals_sigma0(genes_binned, labels, tag):
    mats = shared_matrix(genes_binned.astype(np.uint64), labels, tag)

    def body(p):
        return noisy_marginals(p, scaled_onehots(p, mats[p.pid - 1]), 0.0)[1]

    results, _ = run3(body)
    gene, label, two = split_marginals(fx.decode(reconstruct(results)))
    return gene[0], label[0], two[0]


def test_sigma0_marginals_equal_brute_force(rng):
    for trial in range(5):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 5))
        genes = rng.integers(0, 4, size=(n, d))
        labels = rng.integers(0, 5, size=n)
        gene, label, two = marginals_sigma0(genes, labels, 60 + trial)
        bg, bl, bt = ref.brute_marginals(genes, labels)
        assert np.array_equal(gene, bg.astype(np.float64))
        assert np.array_equal(label, bl.astype(np.float64))
        assert np.array_equal(two, bt.astype(np.float64))
        assert np.all(gene.sum(axis=1) == n)
        assert np.all(two.sum(axis=1) == n)
        assert label.sum() == n


def test_cell_counts_equal_brute_force(rng):
    """The enclave's cleartext counts of sampled rows times 2^COUNT_BITS, in
    the canonical cell order, with and without gene columns."""
    for d in (0, 1, 6):
        rows = np.column_stack([rng.integers(0, 4, size=(40, d)), rng.integers(0, 5, size=40)])
        want = np.concatenate([m.ravel() for m in ref.brute_marginals(rows[:, :d], rows[:, d])])
        assert np.array_equal(cell_counts(rows), want.astype(np.uint64) << np.uint64(COUNT_BITS))


def test_marginal_hand_examples():
    gene, label, two = marginals_sigma0(np.array([[0], [1], [1]]), np.array([0, 0, 4]), 70)
    assert list(gene[0]) == [1.0, 2.0, 0.0, 0.0]
    assert list(label) == [2.0, 0.0, 0.0, 0.0, 1.0]
    # single row (g=3, y=4) in the flattened two-way: index 3*5+4
    g2, l2, t2 = marginals_sigma0(np.array([[3]]), np.array([4]), 71)
    want = np.zeros(20)
    want[3 * 5 + 4] = 1.0
    assert list(t2[0]) == list(want)


@pytest.mark.parametrize("rows", [(6, 6), (6, 3)])
def test_scaled_onehots_exact_with_zero_padding(rng, rows):
    """Every gene cell's one-hot is exactly 2^GENE_BITS = 2 at its bin, every
    label's 2^LABEL_BITS = 8 at its class, over the whole domains {0..3} and
    {0..4}, and 0 in every padding row: K = 2 batches of 6 padded rows, all
    rows data or 6 and 3 data rows."""
    assert (GENE_BITS, LABEL_BITS, COUNT_BITS) == (1, 3, 4)
    genes = np.stack([np.arange(24).reshape(6, 4) % 4, rng.integers(0, 4, size=(6, 4))])
    labels = np.stack([np.arange(6) % 5, rng.integers(0, 5, size=6)])
    cells = np.concatenate([genes, labels[..., None]], axis=2)
    mats = [ShareMatrix(s, 4, np.array(rows)) for s in shared(cells, 75)]

    results, _ = run3(lambda p: scaled_onehots(p, mats[p.pid - 1]))
    gene = reconstruct([r[0] for r in results])
    label = reconstruct([r[1] for r in results])
    data = (np.arange(6) < np.array(rows)[:, None]).astype(np.uint64)
    assert np.array_equal(gene, 2 * (genes[..., None] == np.arange(4)) * data[..., None, None])
    assert np.array_equal(label, 8 * (labels[..., None] == np.arange(5)) * data[..., None])


def test_marginal_counts_share_numerator_rounds(rng):
    """The label and gene one-hots share their two power rounds (x^2, then
    x^3 and the labels' x^4), then the counts take the two-way matmul (1),
    each one message per party, and no truncation; the flat power rounds
    send one word per product."""
    mats = shared_matrix(rng.integers(0, 4, size=(9, 2)).astype(np.uint64), rng.integers(0, 5, size=9), 72)

    def body(p):
        with p.protocol("adhoc"):
            marginal_counts(p, scaled_onehots(p, mats[p.pid - 1]))

    _, parties = run3(body)
    entries = [p.ledger.entry("adhoc") for p in parties]
    assert [e.rounds for e in entries] == [3, 3, 3]
    assert [e.messages_sent for e in entries] == [3, 3, 3]
    assert [e.bytes_sent for e in entries] == [824, 824, 824]


def test_marginal_counts_one_flat_sharing(rng):
    """marginal_counts returns the (K, 24d+5) cells in canonical order, and
    split_marginals of the opened cells gives the brute-force counts times
    2^COUNT_BITS."""
    n, d = 11, 3
    genes, labels = rng.integers(0, 4, size=(n, d)), rng.integers(0, 5, size=n)
    mats = shared_matrix(genes.astype(np.uint64), labels, 73)

    def body(p):
        return marginal_counts(p, scaled_onehots(p, mats[p.pid - 1]))

    results, _ = run3(body)
    assert results[0].shape == (1, 24 * d + 5)
    for got, want in zip(split_marginals(reconstruct(results)), ref.brute_marginals(genes, labels)):
        assert np.array_equal(got[0], want.astype(np.uint64) << np.uint64(COUNT_BITS))


@pytest.mark.parametrize("f", [8, 16, 20])
def test_noisy_marginals_match_mirror_at_the_ring_bound(f):
    """All n rows in one cell, and encode(sigma_q) the largest for which the
    preflight's bound n 2^(2f) + 6 2^f encode(sigma_q) < 2^63 holds: the one
    truncation gives the mirror's count 2^f + floor(noise sigma_q / 2^f) in
    every cell, word for word."""
    n, d, seed = 40, 2, 19
    top = ((1 << 63) - 1 - (n << 2 * f)) // (6 << f)
    sigma_q = top / (1 << f)
    assert fx.encode_scalar(sigma_q, f) == top
    genes, labels = np.zeros((n, d), dtype=np.int64), np.zeros(n, dtype=np.int64)
    mats = shared_matrix(genes.astype(np.uint64), labels, 74)
    results, _ = run_parties(lambda p: noisy_marginals(p, scaled_onehots(p, mats[p.pid - 1]), sigma_q)[1], seed, FixedPointConfig(f))
    want = ref.clear_noisy_marginals(genes, labels, sigma_q, ref.NoiseReplay(seed, f), f)
    assert np.array_equal(reconstruct(results)[0], np.concatenate([m.ravel() for m in want]))


def test_calibration_closed_form():
    """1917 measurements of (1917, 1917e-5) get (1, 1e-5) each; halving eps_s doubles sigma_q."""
    assert abs(calibrate(1917.0, 1917e-5, 1917) - math.sqrt(2 * math.log(1.25e5))) < 1e-9
    assert abs(calibrate(5.0, 1e-5, 1) - math.sqrt(2 * math.log(1.25e5)) / 5.0) < 1e-12
    assert abs(calibrate(2.5, 1e-5, 1) - 2 * calibrate(5.0, 1e-5, 1)) < 1e-9


def test_calibration_rejects_bad_budget():
    with pytest.raises(ValueError):
        calibrate(0.0, 1e-5, 10)
    with pytest.raises(ValueError):
        calibrate(1.0, 0.0, 10)


def test_measurement_count():
    assert measurement_count(958) == 1917
    assert measurement_count(10) == 21


def test_noise_changes_cells_and_is_seeded(rng):
    genes = rng.integers(0, 4, size=(20, 2))
    labels = rng.integers(0, 5, size=20)
    mats = shared_matrix(genes.astype(np.uint64), labels, 72)

    def body(p):
        return noisy_marginals(p, scaled_onehots(p, mats[p.pid - 1]), 3.0)[1]

    r1, _ = run3(body, seed=101)
    r2, _ = run3(body, seed=101)
    r3, _ = run3(body, seed=102)
    m1, m2, m3 = (split_marginals(reconstruct(r))[0][0] for r in (r1, r2, r3))
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    bg, _, _ = ref.brute_marginals(genes, labels)
    noise = fx.decode(m1) - bg
    assert 0.5 < float(np.abs(noise).mean()) < 15.0


def test_noise_independence_across_cells(rng):
    """Sampled marginal noise shows no pairwise correlation across cells."""
    genes = np.zeros((5, 1), dtype=np.int64)
    labels = np.zeros(5, dtype=np.int64)
    samples = []
    for trial in range(300):
        mats = shared_matrix(genes.astype(np.uint64), labels, 300 + trial)

        def body(p):
            return noisy_marginals(p, scaled_onehots(p, mats[p.pid - 1]), 1.0)[1]

        results, _ = run3(body, seed=5000 + trial)
        gene, label, _ = split_marginals(fx.decode(reconstruct(results)))
        samples.append(np.concatenate([gene.ravel(), label.ravel()]))
    mat = np.array(samples)
    mat = mat - mat.mean(axis=0)
    corr = np.corrcoef(mat.T)
    off_diag = corr[~np.eye(corr.shape[0], dtype=bool)]
    # 300 samples: |r| beyond ~0.19 would reject independence at alpha=0.01
    assert np.max(np.abs(off_diag)) < 0.19
