import numpy as np

import clear_reference as ref
from conftest import reconstruct, run3, shared, shared_matrix

from silosynth import fixedpoint as fx
from silosynth.fixedpoint import FixedPointConfig
from silosynth.generator import (
    fit_gene_table,
    generate_bridge,
    generate_rows,
    generate_synthetic,
    generator_rng,
)
from silosynth.marginals import COUNT_BITS, noisy_marginals, scaled_onehots_steps, split_marginals
from silosynth.runtime import run_parties


def test_ipf_fixed_point_at_consistency(rng):
    genes = rng.integers(0, 4, size=(50, 1))
    labels = rng.integers(0, 5, size=50)
    _, _, two = ref.brute_marginals(genes, labels)
    g, l, t = ref.brute_marginals(genes, labels)
    t0 = fit_gene_table(t[0].astype(float), g[0].astype(float), l.astype(float), 0)
    t30 = fit_gene_table(t[0].astype(float), g[0].astype(float), l.astype(float), 30)
    assert np.array_equal(t0, t30)


def test_ipf_kl_nonincreasing(rng):
    noisy_two = rng.normal(50, 20, size=20)
    noisy_gene = rng.normal(250, 30, size=4)
    noisy_label = rng.normal(200, 30, size=5)

    def kl_to_targets(table):
        rows = table.sum(axis=1) / table.sum()
        cols = table.sum(axis=0) / table.sum()
        rt = np.clip(noisy_gene, 0, None); rt = rt / rt.sum()
        ct = np.clip(noisy_label, 0, None); ct = ct / ct.sum()
        eps = 1e-12
        kl_r = float(np.sum(rt * np.log((rt + eps) / (rows + eps))))
        kl_c = float(np.sum(ct * np.log((ct + eps) / (cols + eps))))
        return kl_r + kl_c

    divs = []
    for iters in range(0, 8):
        table = fit_gene_table(noisy_two, noisy_gene, noisy_label, iters)
        divs.append(kl_to_targets(table))
    assert all(divs[i + 1] <= divs[i] + 1e-9 for i in range(len(divs) - 1))


def test_constant_gene_stays_constant(rng):
    genes = np.full((40, 1), 2, dtype=np.int64)
    labels = rng.integers(0, 5, size=40)
    g, l, t = ref.brute_marginals(genes, labels)
    out = generate_synthetic(g.astype(float), l.astype(float), t.astype(float),
                             500, 10, np.random.default_rng(0))
    assert np.all(out[:, 0] == 2)


def test_label_frequencies_converge(rng):
    labels = rng.choice(5, size=200, p=[0.4, 0.3, 0.15, 0.1, 0.05])
    genes = rng.integers(0, 4, size=(200, 1))
    g, l, t = ref.brute_marginals(genes, labels)
    out = generate_synthetic(g.astype(float), l.astype(float), t.astype(float),
                             10_000, 10, np.random.default_rng(1))
    p = l / l.sum()
    freq = np.bincount(out[:, 1], minlength=5) / 10_000
    sigma = np.sqrt(p * (1 - p) / 10_000)
    assert np.all(np.abs(freq - p) <= 3 * sigma + 1e-9)


def test_generate_deterministic():
    g = np.array([[10.0, 20.0, 5.0, 15.0]])
    l = np.array([10.0, 10.0, 10.0, 10.0, 10.0])
    t = np.abs(np.random.default_rng(3).normal(5, 2, size=(1, 20)))
    a = generate_synthetic(g, l, t, 100, 15, generator_rng(42, (0, 0)))
    b = generate_synthetic(g, l, t, 100, 15, generator_rng(42, (0, 0)))
    assert np.array_equal(a, b)


def test_all_zero_marginal_uniform_fallback():
    g = np.array([[-5.0, -1.0, -2.0, -0.5]])
    l = np.array([-1.0, -2.0, -1.0, -1.0, -1.0])
    t = np.full((1, 20), -3.0)
    out = generate_synthetic(g, l, t, 2000, 10, np.random.default_rng(4))
    assert set(np.unique(out[:, 1])) <= set(range(5))
    counts = np.bincount(out[:, 0], minlength=4)
    assert np.all(counts > 300)  # roughly uniform over 4 bins


def test_bridge_reshares_enclave_output(rng):
    genes = rng.integers(0, 4, size=(25, 3))
    labels = rng.integers(0, 5, size=25)
    mats = shared_matrix(genes.astype(np.uint64), labels, 80)

    def body(p):
        _, ms = noisy_marginals(p, p.run(scaled_onehots_steps(p, mats[p.pid - 1])), 1.0)
        return generate_rows(p, ms, 30, 10, master_seed=77, context=(1, 2))

    results, parties = run3(body)
    onehot = reconstruct([r[0] for r in results])
    opened_labels = reconstruct([r[1] for r in results])
    assert onehot.shape == (1, 30, 3, 4) and opened_labels.shape == (1, 30)
    assert np.all(onehot <= 1) and np.all(onehot.sum(axis=3) == 1)
    assert np.all(opened_labels < 5)
    # openings log stays empty; reveal log records the directed reveal
    for p in parties:
        assert p.opening_log == []
        assert any(r[0] == "noisy-marginals" for r in p.reveal_log)
    # re-sharing bytes are attributed to the sdg label: every party sends one
    # ring element per one-hot word and label, the revealing party also one
    # per marginal cell
    reshare_bytes = 30 * (4 * 3 + 1) * 8
    marginal_bytes = (3 * 4 + 5 + 3 * 20) * 8
    assert [p.ledger["sdg"].bytes_sent for p in parties] == [
        reshare_bytes, reshare_bytes + marginal_bytes, reshare_bytes]


def test_bridge_matches_cleartext_generation(rng):
    """The re-shared one-hots mark the bins, and the labels are the labels,
    of the rows the cleartext generator samples from the same stream."""
    genes = rng.integers(0, 4, size=(25, 2))
    labels = rng.integers(0, 5, size=25)
    mats = shared_matrix(genes.astype(np.uint64), labels, 81)

    def body(p):
        _, ms = noisy_marginals(p, p.run(scaled_onehots_steps(p, mats[p.pid - 1])), 0.0)
        return generate_rows(p, ms, 40, 10, master_seed=55, context=(0, 0))

    results, _ = run3(body, seed=55)
    onehot = reconstruct([r[0] for r in results])[0]
    opened_labels = reconstruct([r[1] for r in results])[0]
    g, l, t = ref.brute_marginals(genes, labels)
    want = generate_synthetic(g.astype(float), l.astype(float), t.astype(float),
                              40, 10, generator_rng(55, (0, 0)))
    assert np.array_equal(onehot, (want[:, :2, None] == np.arange(4)).astype(np.uint64))
    assert np.array_equal(fx.signed(opened_labels), want[:, 2])


def test_bridge_reshares_counts_and_weights(rng):
    """A tuning loop's enclave step on 3 folds of unequal size at frac_bits
    = 20: the re-shared counts equal brute-force counts of the rows the
    enclave sampled times 2^COUNT_BITS, the weights equal the mirror
    trainer's on those rows, and the rows are never re-shared or opened."""
    f, d, rows = 20, 3, [8, 7, 7]
    genes = rng.integers(0, 4, size=(22, d))
    labels = rng.integers(0, 5, size=22)
    folds = np.array_split(np.arange(22), 3)
    cells = np.stack([np.concatenate([m.ravel() for m in ref.brute_marginals(genes[i], labels[i])])
                      for i in folds]).astype(np.uint64) << np.uint64(f)
    ms = shared(cells, 82)
    contexts = [(3, j) for j in range(3)]

    def body(p):
        return generate_bridge(p, ms[p.pid - 1], rows, 10, 55, contexts, epochs=6, learning_rate=0.2)

    results, parties = run_parties(body, 55, FixedPointConfig(f))
    counts = reconstruct([r[0] for r in results])
    weights = reconstruct([r[1] for r in results])
    assert counts.shape == cells.shape and weights.shape == (3, d + 1, 5)
    gene, label, two_way = split_marginals(fx.decode(cells, f))
    for j in range(3):
        synth = generate_synthetic(gene[j], label[j], two_way[j], rows[j], 10, generator_rng(55, contexts[j]))
        want = ref.brute_marginals(synth[:, :d], synth[:, d])
        assert np.array_equal(counts[j], np.concatenate([m.ravel() for m in want]) << COUNT_BITS)
        assert np.array_equal(weights[j], ref.clear_lr_train(synth[:, :d], synth[:, d], 6, 0.2, f))
    # every party re-shares one word per count and weight, the revealing party
    # also one per marginal cell; one reveal, nothing opened
    reshare_bytes = 3 * (cells.shape[1] + (d + 1) * 5) * 8
    assert [p.ledger["sdg"].bytes_sent for p in parties] == [
        reshare_bytes, reshare_bytes + cells.size * 8, reshare_bytes]
    for p in parties:
        assert p.opening_log == []
        assert p.reveal_log == [("noisy-marginals", cells.size)]
