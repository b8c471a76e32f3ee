import numpy as np
import pytest

import clear_reference as ref
from conftest import reconstruct, run3, shared, shared_matrix

from silosynth import fixedpoint as fx
from silosynth.evaluation import (
    SOFTMAX_FLOOR,
    _softmax,
    evaluate_steps,
    lr_accuracy,
    lr_train,
    wle,
)
from silosynth.fixedpoint import FixedPointConfig
from silosynth.marginals import COUNT_BITS, LABEL_DOMAIN, marginal_counts, scaled_onehots_steps
from silosynth.runtime import Party, run_parties
from silosynth.sharing import ShareMatrix

ULP = 2.0**-16
# Every exponential lies in [0, 1] and the row maximum's is exactly 1.0, so a
# softmax denominator lies in [1, DENOM_MAX], the range RECIP_ALPHA and
# RECIP_BETA are fitted to.
DENOM_MAX = float(LABEL_DOMAIN)


def open_scalar(results):
    return fx.decode(np.atleast_1d(reconstruct(results)))[0]


def counts_of(p, matrix):
    """A batch's exact counts times 2^COUNT_BITS, from its scaled one-hots."""
    return marginal_counts(p, p.run(scaled_onehots_steps(p, matrix)))


def wle_of(p, real, synth):
    """wle of a real batch against a synthetic one of as many rows, from both batches' exact counts."""
    return wle(p, counts_of(p, real), counts_of(p, synth), real.rows)


def enclave(frac_bits=16):
    """Party 1 as the generator enclave sees it: the trainer reads only its precision."""
    return Party(1, None, 0, FixedPointConfig(frac_bits))


def train(genes, labels, epochs, learning_rate, frac_bits=16):
    return lr_train(enclave(frac_bits), np.column_stack([genes, labels]), epochs, learning_rate)


def test_wle_identical_datasets_zero(rng):
    genes = rng.integers(0, 4, size=(25, 3))
    labels = rng.integers(0, 5, size=25)
    m1 = shared_matrix(genes.astype(np.uint64), labels, 90)
    m2 = shared_matrix(genes.astype(np.uint64), labels, 91)

    def body(p):
        return wle_of(p, m1[p.pid - 1], m2[p.pid - 1])

    results, _ = run3(body)
    assert open_scalar(results) == 0.0


def test_wle_hand_computed_toy():
    # d=0: labels only. D=(0,0), Dhat=(0,1): |1-0.5| + |0-0.5| = 1.0, |Q|=1
    real = shared_matrix(np.zeros((2, 0), dtype=np.uint64), np.array([0, 0]), 92)
    synth = shared_matrix(np.zeros((2, 0), dtype=np.uint64), np.array([0, 1]), 93)

    def body(p):
        return wle_of(p, real[p.pid - 1], synth[p.pid - 1])

    results, _ = run3(body)
    assert open_scalar(results) == 1.0


def test_wle_permutation_invariance(rng):
    genes = rng.integers(0, 4, size=(20, 2))
    labels = rng.integers(0, 5, size=20)
    perm = rng.permutation(20)
    m1 = shared_matrix(genes.astype(np.uint64), labels, 94)
    m2 = shared_matrix(genes[perm].astype(np.uint64), labels[perm], 95)
    synth_g = rng.integers(0, 4, size=(20, 2))
    synth_l = rng.integers(0, 5, size=20)
    s1 = shared_matrix(synth_g.astype(np.uint64), synth_l, 96)

    def body(p):
        return (wle_of(p, m1[p.pid - 1], s1[p.pid - 1]),
                wle_of(p, m2[p.pid - 1], s1[p.pid - 1]))

    results, _ = run3(body)
    a = reconstruct([r[0] for r in results])
    b = reconstruct([r[1] for r in results])
    assert np.array_equal(a, b)


def test_wle_symmetry_same_n(rng):
    genes = rng.integers(0, 4, size=(15, 2))
    labels = rng.integers(0, 5, size=15)
    g2 = rng.integers(0, 4, size=(15, 2))
    l2 = rng.integers(0, 5, size=15)
    m1 = shared_matrix(genes.astype(np.uint64), labels, 97)
    m2 = shared_matrix(g2.astype(np.uint64), l2, 98)

    def body(p):
        return (wle_of(p, m1[p.pid - 1], m2[p.pid - 1]),
                wle_of(p, m2[p.pid - 1], m1[p.pid - 1]))

    results, _ = run3(body)
    a = reconstruct([r[0] for r in results])
    b = reconstruct([r[1] for r in results])
    assert np.array_equal(a, b)


def test_wle_matches_clear_mirror(rng):
    genes = rng.integers(0, 4, size=(30, 3))
    labels = rng.integers(0, 5, size=30)
    sg = rng.integers(0, 4, size=(30, 3))
    sl = rng.integers(0, 5, size=30)
    m1 = shared_matrix(genes.astype(np.uint64), labels, 99)
    m2 = shared_matrix(sg.astype(np.uint64), sl, 100)

    def body(p):
        return wle_of(p, m1[p.pid - 1], m2[p.pid - 1])

    results, _ = run3(body)
    got = int(np.atleast_1d(reconstruct(results))[0])
    want = int(ref.clear_wle(genes, labels, sg, sl))
    assert got == want
    # float sanity
    assert abs(fx.decode(np.uint64(got))[0] - ref.float_wle(genes, labels, sg, sl)) < 1e-3


def test_wle_at_the_row_bound_of_frac_bits_20():
    """n = 2^20 - 1 rows at frac_bits = 20, and each of the 21 marginals has
    all its real rows in one cell and all its synthetic rows in another: a
    distance of 2 per marginal. encode(1/n) rounds to 1 and encode(1/21)
    down, so the error reads 2,097,142 words, 8 below 2.0; every product
    stays far inside the ring."""
    f, d, n = 20, 10, (1 << 20) - 1
    counts = []
    for cell in (0, 1):
        gene, label, two_way = np.zeros((d, 4), dtype=np.uint64), np.zeros(5, dtype=np.uint64), \
            np.zeros((d, 20), dtype=np.uint64)
        gene[:, cell] = label[cell] = two_way[:, cell] = n
        counts.append(np.concatenate([gene.ravel(), label, two_way.ravel()])[None] << np.uint64(COUNT_BITS))
    real, synth = shared(counts[0], 101), shared(counts[1], 102)
    results, _ = run_parties(lambda p: wle(p, real[p.pid - 1], synth[p.pid - 1], np.array([n])), 7,
                             FixedPointConfig(f))
    assert int(reconstruct(results)[0]) == 2_097_142


def make_separable_toy(rng, n=20):
    """2-class toy in the binned domain: class 0 lives at low bins, 1 at high."""
    labels = np.concatenate([np.zeros(n // 2, dtype=np.int64), np.ones(n // 2, dtype=np.int64)])
    genes = np.zeros((n, 2), dtype=np.int64)
    genes[: n // 2] = rng.integers(0, 2, size=(n // 2, 2))
    genes[n // 2:] = rng.integers(2, 4, size=(n // 2, 2))
    return genes, labels


def test_lr_zero_epochs_uniform_scores(rng):
    genes, labels = make_separable_toy(rng)
    assert np.all(train(genes, labels, 0, 0.05) == 0)


def test_lr_learns_separable_toy(rng):
    """The enclave's weights equal the mirror's, word for word, and score 1.0
    on their training rows with the secure accuracy."""
    genes, labels = make_separable_toy(rng)
    w = train(genes, labels, 150, 0.05)
    assert np.array_equal(w, ref.clear_lr_train(genes, labels, 150, 0.05))
    mats = shared_matrix(genes.astype(np.uint64), labels, 102)
    sw = shared(w[None], 119)

    def body(p):
        return lr_accuracy(p, sw[p.pid - 1], mats[p.pid - 1])

    results, _ = run3(body)
    assert abs(open_scalar(results) - 1.0) <= 2**-14


@pytest.mark.parametrize("frac_bits", [16, 20])
def test_lr_train_matches_mirror_on_unequal_folds(rng, frac_bits):
    """23 rows in 3 folds train on 15 or 16 rows each, so the step
    learning_rate / n differs per fold; at frac_bits = 20 the softmax's
    3f-bit products come closest to the top of the word."""
    genes = rng.integers(0, 4, size=(23, 4))
    labels = rng.integers(0, 5, size=23)
    for test in np.array_split(np.arange(23), 3):
        keep = np.setdiff1d(np.arange(23), test)
        w = train(genes[keep], labels[keep], 12, 0.3, frac_bits)
        want = ref.clear_lr_train(genes[keep], labels[keep], 12, 0.3, frac_bits)
        assert np.array_equal(w, want)
        assert np.any(w != 0)


def test_lr_accuracy_tie_break_lowest_class(rng):
    genes = rng.integers(0, 4, size=(12, 2))
    labels = np.zeros(12, dtype=np.int64)
    labels[:5] = 0
    labels[5:] = rng.integers(1, 5, size=7)
    mats = shared_matrix(genes.astype(np.uint64), labels, 103)
    zero = shared(np.zeros((1, 3, LABEL_DOMAIN), dtype=np.uint64), 120)

    def body(p):
        return lr_accuracy(p, zero[p.pid - 1], mats[p.pid - 1])

    results, _ = run3(body)
    acc = fx.decode(np.atleast_1d(reconstruct(results)))[0]
    want = (labels == 0).mean()
    assert abs(acc - want) <= 2**-13


def test_lr_accuracy_255_rows_at_f8_matches_mirror(rng):
    """At f = 8, 255 test rows is the most the preflight admits: accuracy with
    every row a hit, none a hit, and random labels equals the mirror's
    division word for word."""
    genes = rng.integers(0, 4, size=(255, 3))
    w = fx.encode(rng.normal(0.0, 1.0, size=(4, LABEL_DOMAIN)), 8)
    predicted = ref.clear_lr_predict(w, genes)
    cases = [predicted, (predicted + 1) % LABEL_DOMAIN, rng.integers(0, LABEL_DOMAIN, size=255)]
    tests = [shared_matrix(genes.astype(np.uint64), labels, 130 + i) for i, labels in enumerate(cases)]
    sw = shared(w[None], 133)

    def body(p):
        return [lr_accuracy(p, sw[p.pid - 1], t[p.pid - 1]) for t in tests]

    results, _ = run_parties(body, master_seed=77, fp=FixedPointConfig(8), timeout=120.0)
    got = [reconstruct([r[i] for r in results])[0] for i in range(len(cases))]
    assert got == [ref.clear_lr_accuracy(w, genes, labels, 8) for labels in cases]
    # within an ulp of 1 and 0; the mirror's division reads 255/255 as 1 - 2^-8
    assert abs(int(got[0]) - (1 << 8)) <= 1 and got[1] == 0


def test_lr_accuracy_rejects_empty():
    empty = shared_matrix(np.zeros((0, 2), dtype=np.uint64), np.zeros(0, dtype=np.int64), 105)
    zero = shared(np.zeros((1, 3, LABEL_DOMAIN), dtype=np.uint64), 121)

    def body(p):
        return lr_accuracy(p, zero[p.pid - 1], empty[p.pid - 1])

    with pytest.raises(Exception):
        run3(body)


def test_gradient_step0_matches_finite_differences(rng):
    """The enclave's step-0 gradient vs central differences of float softmax-CE at W=0."""
    genes, labels = make_separable_toy(rng, n=10)
    # after one epoch with lr=1: W = -grad_mean (eta = 1/n)
    secure_grad = -fx.decode(train(genes, labels, 1, 1.0))

    x = np.concatenate([genes, np.ones((10, 1))], axis=1).astype(np.float64)

    def loss(wf):
        z = x @ wf
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p = p / p.sum(axis=1, keepdims=True)
        return -np.mean(np.log(p[np.arange(10), labels])) * 1.0

    h = 2.0**-6
    fd = np.zeros((3, 5))
    for j in range(3):
        for c in range(5):
            wp = np.zeros((3, 5)); wp[j, c] = h
            wm = np.zeros((3, 5)); wm[j, c] = -h
            fd[j, c] = (loss(wp) - loss(wm)) / (2 * h)
    # mean-CE gradient: the trainer uses sum(delta)/n, same normalization
    assert np.max(np.abs(secure_grad - fd)) <= 10 * 2.0**-16 + 1e-4


def test_evaluate_identity_synthetic(rng):
    genes = rng.integers(0, 4, size=(16, 2))
    labels = rng.integers(0, 5, size=16)
    real = shared_matrix(genes.astype(np.uint64), labels, 107)
    synth = shared_matrix(genes.astype(np.uint64), labels, 108)
    test_g = rng.integers(0, 4, size=(8, 2))
    test_l = rng.integers(0, 5, size=8)
    test = shared_matrix(test_g.astype(np.uint64), test_l, 109)
    w = train(genes, labels, 20, 0.05)
    sw = shared(w[None], 122)

    def body(p):
        return p.run(evaluate_steps(p, counts_of(p, real[p.pid - 1]), counts_of(p, synth[p.pid - 1]),
                        real[p.pid - 1].rows, sw[p.pid - 1], test[p.pid - 1]))

    results, parties = run3(body)
    assert int(np.atleast_1d(reconstruct([r[0] for r in results]))[0]) == 0
    # the ledger splits wle and acc under separate labels; nothing trains on shares
    for p in parties:
        assert {"wle", "acc"} <= set(p.ledger)
        assert "lr" not in p.ledger
    want_acc = ref.clear_lr_accuracy(ref.clear_lr_train(genes, labels, 20, 0.05), test_g, test_l)
    got_acc = int(np.atleast_1d(reconstruct([r[1] for r in results]))[0])
    assert got_acc == int(want_acc)


def test_evaluate_unequal_folds_match_mirror_in_32_rounds(rng):
    """evaluate over K = 3 folds of 7, 5 and 6 training rows and 3, 2 and 4
    test rows, each batch padded to its longest fold: every fold's workload
    error equals clear_wle and its accuracy clear_lr_accuracy word for word,
    and the two metrics take the accuracy's 32 rounds at every party, all
    under acc: each of the workload error's 20 rounds shares one of the
    accuracy's, and a shared round counts under its first receiver."""
    d, train_rows, test_rows = 2, [7, 5, 6], [3, 2, 4]

    def batch(rows, tag):
        genes = rng.integers(0, 4, size=(3, max(rows), d))
        labels = rng.integers(0, 5, size=(3, max(rows)))
        cells = np.concatenate([genes, labels[..., None]], axis=2)
        return genes, labels, [ShareMatrix(s, d, rows) for s in shared(cells, tag)]

    real_g, real_l, real = batch(train_rows, 140)
    synth_g, synth_l, synth = batch(train_rows, 141)
    test_g, test_l, test = batch(test_rows, 142)
    w = np.stack([train(synth_g[k, :n], synth_l[k, :n], 5, 0.1) for k, n in enumerate(train_rows)])
    sw = shared(w, 143)

    def body(p):
        i = p.pid - 1
        real_counts, synth_counts = counts_of(p, real[i]), counts_of(p, synth[i])
        p.ledger.clear()
        return p.run(evaluate_steps(p, real_counts, synth_counts, real[i].rows, sw[i], test[i]))

    results, parties = run3(body)
    wle_words = reconstruct([r[0] for r in results])
    acc_words = reconstruct([r[1] for r in results])
    for k, (n, t) in enumerate(zip(train_rows, test_rows)):
        assert wle_words[k] == ref.clear_wle(real_g[k, :n], real_l[k, :n], synth_g[k, :n], synth_l[k, :n])
        assert acc_words[k] == ref.clear_lr_accuracy(w[k], test_g[k, :t], test_l[k, :t])
    for p in parties:
        assert {label: e["rounds"] for label, e in p.ledger.snapshot().items()} == {"acc": 32, "eval": 0, "wle": 0}


# -- softmax arithmetic ---------------------------------------------------------

def test_exp_exhaustive_grid_bounds():
    """Every grid point of [SOFTMAX_FLOOR, 0]: exp(0) is exactly 1.0 and every
    value lies in [0, 1], so a row sum lies in the division's range [1, DENOM_MAX]."""
    n = int(-SOFTMAX_FLOOR) * 2**16 + 1
    grid = (-np.arange(n, dtype=np.int64)).view(np.uint64)
    values = fx.signed(ref.clear_exp(grid))
    one = fx.encode_scalar(1.0)
    assert values[0] == one
    assert values.min() >= 0 and values.max() <= one
    assert LABEL_DOMAIN * values.max() <= fx.encode_scalar(DENOM_MAX)
    # the polynomial tracks exp to within its fit error plus rounding
    assert np.max(np.abs(fx.decode(values) - np.exp(fx.decode(grid)))) <= 16 * ULP


def test_bounded_div_sweep_within_four_ulp():
    """Every grid denominator in [1, DENOM_MAX]: the Goldschmidt constants
    give 1/den within 4 ulp, and num/den within 4 ulp for numerators in [0, 1]."""
    den = np.arange(2**16, int(DENOM_MAX) * 2**16 + 1, dtype=np.uint64)
    ones = np.full((den.size, 1), np.uint64(fx.encode_scalar(1.0)))
    recip = ref.clear_bounded_div(ones, den)[:, 0]
    assert np.max(np.abs(fx.decode(recip) - 1.0 / fx.decode(den))) <= 4 * ULP

    sample = den[::97]
    num = fx.encode(np.linspace(0.0, 1.0, LABEL_DOMAIN)) * np.ones((sample.size, 1), dtype=np.uint64)
    got = ref.clear_bounded_div(num, sample)
    assert np.max(np.abs(fx.decode(got) - fx.decode(num) / fx.decode(sample)[:, None])) <= 4 * ULP


def test_softmax_random_logits_vs_float(rng):
    z = fx.encode(rng.normal(0.0, 3.0, size=(400, LABEL_DOMAIN)))
    got = _softmax(z, 16)
    assert np.array_equal(got, ref.clear_softmax(z))
    zf = fx.decode(z)
    want = np.exp(zf - zf.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    assert np.max(np.abs(fx.decode(got) - want)) <= 1.5e-3


def test_softmax_matches_mirror_on_wide_logits(rng):
    """Logits of std 4 scaled up to 2^20, so most t fall far below the floor,
    plus rows with t at the floor and one ulp either side: the output words
    equal the mirror's at both ends of the frac_bits range."""
    scale = 2.0 ** rng.integers(0, 19, size=(300, 1))
    wide = fx.encode(np.clip(rng.normal(0.0, 4.0, size=(300, LABEL_DOMAIN)) * scale, -2**20, 2**20))
    floor = np.uint64(fx.encode_scalar(SOFTMAX_FLOOR))
    edge = fx.to_u64(np.array([0, -1, 0, 1, 0])) + np.array([0, floor, floor, floor, 0], dtype=np.uint64)
    edge = edge + fx.encode(rng.normal(0.0, 4.0, size=(20, 1)))
    z = np.concatenate([wide, edge])
    assert np.array_equal(_softmax(z, 16), ref.clear_softmax(z))
    z20 = z << np.uint64(4)
    assert np.array_equal(_softmax(z20, 20), ref.clear_softmax(z20, 20))


def test_accuracy_rounds_pinned(rng):
    """acc costs 32 rounds: the logits matmul 1, the all-pairs argmax 12
    (one lt (8), a two-level AND tree (2) and one b2a_sum (2) that reads the
    class of the one-hot over 5 classes), eq_zero 7, b2a 2 and the
    public-divisor division's one truncation 10."""
    genes = rng.integers(0, 4, size=(12, 3))
    labels = rng.integers(0, 5, size=12)
    test = shared_matrix(genes.astype(np.uint64), labels, 116)
    w = shared(fx.encode(rng.normal(0.0, 1.0, size=(1, 4, LABEL_DOMAIN))), 117)

    def body(p):
        lr_accuracy(p, w[p.pid - 1], test[p.pid - 1])

    _, parties = run3(body)
    assert [p.ledger["acc"].rounds for p in parties] == [32, 32, 32]
