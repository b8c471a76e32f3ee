"""Cleartext reference implementations used exclusively as test oracles.

Two flavors live here:

* independent float/counting oracles (brute-force marginal counting, float
  quantiles) for sanity bounds, and
* exact fixed-point mirrors that perform the same grid arithmetic as the
  secure protocols, scalar/vectorized on plain uint64 words, for bit-exact
  equivalence checks (including the full seed-pinned pipeline mirror).
"""

from __future__ import annotations

import numpy as np

from silosynth import fixedpoint as fx
from silosynth.evaluation import (
    EXP_POLY,
    GOLDSCHMIDT_STEPS,
    GUARD_BITS,
    N_CLASSES,
    RECIP_ALPHA,
    RECIP_BETA,
    SOFTMAX_FLOOR,
)
from silosynth.marginals import GENE_DOMAIN, LABEL_DOMAIN
from silosynth.primitives import NR_ITERATIONS, RECIP_INIT

F = 16
QUANTILES = (0.25, 0.5, 0.75)


# -- exact fixed-point scalar mirrors -------------------------------------------

def sar(words, k):
    return fx.truncate(words, k)


def mul_fx(x, y, f=F):
    return fx.truncate(fx.to_u64(x) * fx.to_u64(y), f)


def bit_length_minus1(words: np.ndarray) -> np.ndarray:
    v = fx.to_u64(words).copy()
    t = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = (v >> np.uint64(shift)) > 0
        t += shift * big
        v = np.where(big, v >> np.uint64(shift), v)
    return t


def clear_reciprocal(b, f=F):
    """Mirror of the secure Newton-Raphson reciprocal, ulp for ulp."""
    b = fx.to_u64(b)
    t = bit_length_minus1(b)
    factor = (np.uint64(1) << fx.to_u64(2 * f - 1 - t))
    b_norm = fx.truncate(b * factor, f)
    two = np.uint64(fx.encode_scalar(2.0, f))
    x = np.uint64(fx.encode_scalar(RECIP_INIT, f)) - b_norm - b_norm
    for _ in range(NR_ITERATIONS):
        e = two - fx.truncate(b_norm * x, f)
        x = fx.truncate(x * e, f)
    return fx.truncate(x * factor, f)


def clear_div(a, b, f=F):
    a, b = fx.to_u64(a), fx.to_u64(b)
    recip = clear_reciprocal(b, f)
    q = fx.truncate(a * recip, f)
    residual = a - fx.truncate(q * b, f)
    return q + fx.truncate(residual * recip, f)


def quantile_cuts_fx(column_words: np.ndarray, f=F) -> np.ndarray:
    """Fixed-point mirror of sorted-column quantile interpolation (one gene)."""
    s = np.sort(fx.signed(fx.to_u64(column_words))).view(np.uint64)
    n = s.size
    cuts = []
    for r in QUANTILES:
        pos = (n - 1) * r
        i = int(np.floor(pos))
        frac = pos - i
        q = s[i:i + 1].copy()
        if frac != 0.0:
            diff = s[i + 1:i + 2] - s[i:i + 1]
            q = q + fx.truncate(diff * np.uint64(fx.encode_scalar(frac, f)), f)
        cuts.append(q[0])
    return np.array(cuts, dtype=np.uint64)


def bin_with_cuts_fx(values: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    v = fx.signed(fx.to_u64(values))
    below = sum((v < fx.signed(np.full(v.shape, c, dtype=np.uint64))).astype(np.int64) for c in cuts)
    return (3 - below).astype(np.uint64)


def bin_means_fx(binned: np.ndarray, originals: np.ndarray, cuts: np.ndarray, f=F):
    """Mirror of the secure per-bin means incl. the empty-bin fallback."""
    means = np.zeros(4, dtype=np.uint64)
    counters = np.zeros(4, dtype=np.int64)
    mid01 = fx.truncate(cuts[0:1] + cuts[1:2], 1)[0]
    mid12 = fx.truncate(cuts[1:2] + cuts[2:3], 1)[0]
    fallback = np.array([cuts[0], mid01, mid12, cuts[2]], dtype=np.uint64)
    for b in range(4):
        mask = binned == b
        counters[b] = int(mask.sum())
        total = fx.to_u64(originals)[mask].sum(dtype=np.uint64)
        denom = np.uint64((counters[b] + (1 if counters[b] == 0 else 0)) << f)
        m = clear_div(np.array([total]), np.array([denom]), f)[0]
        if counters[b] == 0:
            m = fallback[b]
        means[b] = m
    return means, counters


def bin_dataset_fx(genes_words: np.ndarray, f=F):
    """Full binning mirror over all gene columns: (binned, cuts, means, counters)."""
    n, d = genes_words.shape
    binned = np.zeros((n, d), dtype=np.uint64)
    cuts = np.zeros((d, 3), dtype=np.uint64)
    means = np.zeros((d, 4), dtype=np.uint64)
    counters = np.zeros((d, 4), dtype=np.int64)
    for g in range(d):
        cuts[g] = quantile_cuts_fx(genes_words[:, g], f)
        binned[:, g] = bin_with_cuts_fx(genes_words[:, g], cuts[g])
        means[g], counters[g] = bin_means_fx(binned[:, g], genes_words[:, g], cuts[g], f)
    return binned, cuts, means, counters


# -- logistic-regression fixed-point mirror ---------------------------------------

def clear_exp(t, f=F):
    """Mirror of the secure Estrin exponential on [SOFTMAX_FLOOR, 0]."""
    t = fx.to_u64(t)
    one = np.uint64(1 << f)
    c = [np.uint64(fx.encode_scalar(k, f)) for k in EXP_POLY]
    u, u2 = fx.truncate(t, 2), fx.truncate(t * t, f + 4)
    lin = one * one + t * (one >> np.uint64(2))
    quad = c[2] * one + u * c[3]
    quart = c[4] * one + u * c[5]
    u4 = fx.truncate(u2 * u2, f)
    p = fx.truncate(lin * one + u2 * quad + u4 * quart, 2 * f)
    sq = fx.truncate(p * p, f)
    return fx.truncate(sq * sq, f)


def clear_bounded_div(num, den, f=F):
    """Mirror of the secure Goldschmidt division num (N, k) / den (N,)."""
    num, den = fx.to_u64(num), fx.to_u64(den)
    one = np.uint64(1 << f)
    w = f + GUARD_BITS
    x0 = np.uint64(fx.encode_scalar(RECIP_ALPHA, f)) * one - den * np.uint64(fx.encode_scalar(RECIP_BETA, f))
    e = fx.truncate(one * one * one - den * x0, 2 * f - GUARD_BITS)
    n = fx.truncate(num * x0[:, None], 2 * f - GUARD_BITS)
    for _ in range(GOLDSCHMIDT_STEPS - 1):
        factor = (np.uint64(1 << w) + e)[:, None]
        n, e = fx.truncate(n * factor, w), fx.truncate(e * e, w)
    last = n * (np.uint64(1 << w) + e)[:, None] + np.uint64(1 << (w + GUARD_BITS - 1))
    return fx.truncate(last, w + GUARD_BITS)


def clear_softmax(z: np.ndarray, f=F) -> np.ndarray:
    m = np.max(fx.signed(z), axis=1).astype(np.int64).view(np.uint64)
    t = z - m[:, None]
    floor_w = np.uint64(fx.encode_scalar(SOFTMAX_FLOOR, f))
    t = np.where(fx.signed(t) < fx.signed(np.full(t.shape, floor_w)), floor_w, t)
    p = clear_exp(t, f)
    return clear_bounded_div(p, p.sum(axis=1, dtype=np.uint64), f)


def clear_lr_train(genes_binned: np.ndarray, labels: np.ndarray, epochs: int,
                   learning_rate: float, f=F) -> np.ndarray:
    """Mirror of the secure trainer on plain ring words; same grid arithmetic."""
    n, d = genes_binned.shape
    x = np.concatenate([fx.to_u64(genes_binned), np.ones((n, 1), dtype=np.uint64)], axis=1)
    onehot = ((labels[:, None] == np.arange(N_CLASSES)).astype(np.uint64) << np.uint64(f))
    w = np.zeros((d + 1, N_CLASSES), dtype=np.uint64)
    eta = np.uint64(fx.encode_scalar(learning_rate / n, f))
    xt = x.T.copy()
    for _ in range(epochs):
        logits = x @ w
        probs = clear_softmax(logits, f)
        delta = probs - onehot
        grad = xt @ delta
        w = w - fx.truncate(grad * eta, f)
    return w


def clear_lr_predict(w: np.ndarray, genes_binned: np.ndarray) -> np.ndarray:
    n = genes_binned.shape[0]
    x = np.concatenate([fx.to_u64(genes_binned), np.ones((n, 1), dtype=np.uint64)], axis=1)
    return np.argmax(fx.signed(x @ w), axis=1)


def clear_lr_accuracy(w: np.ndarray, genes_binned: np.ndarray, labels: np.ndarray, f=F) -> np.uint64:
    hits = int((clear_lr_predict(w, genes_binned) == labels).sum())
    n = genes_binned.shape[0]
    return clear_div(np.array([hits << f], dtype=np.uint64),
                     np.array([n << f], dtype=np.uint64), f)[0]


def clear_wle(real_genes_b, real_labels, synth_genes_b, synth_labels, f=F) -> np.uint64:
    """Fixed-point mirror of the secure workload error."""
    rg, rl, rt = brute_marginals(real_genes_b, real_labels)
    sg, sl, st = brute_marginals(synth_genes_b, synth_labels)
    d = rg.shape[0]
    flat_r = np.concatenate([rg.ravel(), rl.ravel(), rt.ravel()]).astype(np.uint64)
    flat_s = np.concatenate([sg.ravel(), sl.ravel(), st.ravel()]).astype(np.uint64)
    scaled_r = flat_r * np.uint64(fx.encode_scalar(1.0 / len(real_labels), f))
    scaled_s = flat_s * np.uint64(fx.encode_scalar(1.0 / len(synth_labels), f))
    diff = np.abs(fx.signed(scaled_r - scaled_s)).view(np.uint64)
    total = diff.sum(dtype=np.uint64)
    return fx.truncate(np.array([total * np.uint64(fx.encode_scalar(1.0 / (2 * d + 1), f))]), f)[0]


# -- independent counting/float oracles ------------------------------------------

def brute_marginals(binned_genes: np.ndarray, labels: np.ndarray):
    """Exhaustive-enumeration marginal counts (independent of polynomials)."""
    n, d = binned_genes.shape if binned_genes.size else (len(labels), 0)
    gene = np.zeros((d, GENE_DOMAIN), dtype=np.int64)
    label = np.zeros(LABEL_DOMAIN, dtype=np.int64)
    two_way = np.zeros((d, GENE_DOMAIN * LABEL_DOMAIN), dtype=np.int64)
    for i in range(n):
        y = int(labels[i])
        label[y] += 1
        for g in range(d):
            v = int(binned_genes[i, g])
            gene[g, v] += 1
            two_way[g, v * LABEL_DOMAIN + y] += 1
    return gene, label, two_way


def float_quantile_bins(genes: np.ndarray) -> np.ndarray:
    """Float-domain quantile binning (sanity oracle, tolerance comparisons only)."""
    n, d = genes.shape
    out = np.zeros((n, d), dtype=np.int64)
    for g in range(d):
        cuts = np.quantile(genes[:, g], QUANTILES, method="linear")
        out[:, g] = 3 - sum((genes[:, g] < c).astype(np.int64) for c in cuts)
    return out


def float_wle(real_genes_b, real_labels, synth_genes_b, synth_labels) -> float:
    """Workload error in floats from brute-force counts."""
    rg, rl, rt = brute_marginals(real_genes_b, real_labels)
    sg, sl, st = brute_marginals(synth_genes_b, synth_labels)
    n_r, n_s = len(real_labels), len(synth_labels)
    diffs = [np.abs(rg / n_r - sg / n_s).sum(), np.abs(rl / n_r - sl / n_s).sum(),
             np.abs(rt / n_r - st / n_s).sum()]
    d = rg.shape[0]
    return float(sum(diffs) / (2 * d + 1))


# -- full seed-pinned pipeline mirror ----------------------------------------------

class NoiseReplay:
    """Replays the parties' joint uniform/Gaussian noise stream bit for bit."""

    def __init__(self, master_seed: int, f=F):
        from silosynth.rng import SeedStreams, zero_share_seeds

        self.streams = [SeedStreams(s) for s in zero_share_seeds(master_seed)]
        self.f = f

    def uniform_words(self, n: int) -> np.ndarray:
        w = [st.words("shared-bits", n) for st in self.streams]
        return (w[0] ^ w[1] ^ w[2]) & np.uint64((1 << self.f) - 1)

    def gauss_words(self, n: int) -> np.ndarray:
        u = self.uniform_words(12 * n).reshape(12, n)
        total = u.sum(axis=0, dtype=np.uint64)
        return total - np.uint64(fx.encode_scalar(6.0, self.f))


def clear_noisy_marginals(genes_b, labels, sigma_q, noise: NoiseReplay, f=F):
    """Counts lifted to scale f plus the replayed Gaussian noise (ring words)."""
    g, l, t = brute_marginals(genes_b.astype(np.int64), labels)
    flat = np.concatenate([g.ravel(), l.ravel(), t.ravel()]).astype(np.uint64) << np.uint64(f)
    if sigma_q > 0.0:
        gw = noise.gauss_words(flat.size)
        flat = flat + fx.truncate(gw * np.uint64(fx.encode_scalar(sigma_q, f)), f)
    d = g.shape[0]
    return (flat[: 4 * d].reshape(d, 4), flat[4 * d: 4 * d + 5],
            flat[4 * d + 5:].reshape(d, 20))


def clear_bin_train(genes_words: np.ndarray, compute_means: bool, f=F):
    n, d = genes_words.shape
    binned = np.zeros((n, d), dtype=np.uint64)
    cuts = np.zeros((d, 3), dtype=np.uint64)
    means = np.zeros((d, 4), dtype=np.uint64) if compute_means else None
    for g in range(d):
        cuts[g] = quantile_cuts_fx(genes_words[:, g], f)
        binned[:, g] = bin_with_cuts_fx(genes_words[:, g], cuts[g])
        if compute_means:
            means[g], _ = bin_means_fx(binned[:, g], genes_words[:, g], cuts[g], f)
    return binned, cuts, means


def clear_bin_test(genes_words: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    n, d = genes_words.shape
    out = np.zeros((n, d), dtype=np.uint64)
    for g in range(d):
        out[:, g] = bin_with_cuts_fx(genes_words[:, g], cuts[g])
    return out


def clear_pipeline(datasets, threshold_rows, config):
    """Mirror of the whole publish loop; returns the same decisions and bytes.

    datasets: list of (genes float array, labels int array) per custodian.
    """
    from silosynth.generator import generate_synthetic, generator_rng
    from silosynth.marginals import calibrate, measurement_count
    from silosynth.pipeline import EXHAUSTIVE, FIRST_PASS, PUBLISH_CONTEXT, fold_plan

    f = config.frac_bits
    genes = np.concatenate([fx.encode(g, f) for g, _ in datasets], axis=0)
    labels = np.concatenate([l for _, l in datasets])
    n, d = genes.shape
    sigma_q = calibrate(config.eps_s, config.delta_s, measurement_count(d))
    noise = NoiseReplay(config.seed, f)
    thr = fx.encode(np.asarray(threshold_rows, dtype=np.float64), f)  # (C, 2)
    k = config.k_folds

    loops = []
    publish, h_selected = False, None
    candidates = []
    for loop_index in range(min(config.max_loops, len(config.hyperparams))):
        h = config.hyperparams[loop_index]
        plan = fold_plan(config.seed, loop_index, n, k)
        wle_sum = np.uint64(0)
        acc_sum = np.uint64(0)
        for fold_index in range(k):
            train_idx, test_idx = plan[fold_index]
            g_train, y_train = genes[train_idx], labels[train_idx]
            g_test, y_test = genes[test_idx], labels[test_idx]
            b_train, cuts, _ = clear_bin_train(g_train, compute_means=False, f=f)
            b_test = clear_bin_test(g_test, cuts)
            mg, ml, mt = clear_noisy_marginals(b_train, y_train, sigma_q, noise, f)
            rng = generator_rng(config.seed, (loop_index, fold_index))
            synth = generate_synthetic(fx.decode(mg, f), fx.decode(ml, f),
                                       fx.decode(mt, f), len(train_idx), h, rng)
            s_genes, s_labels = synth[:, :d], synth[:, d]
            wle_sum = wle_sum + clear_wle(b_train.astype(np.int64), y_train,
                                          s_genes, s_labels, f)
            w = clear_lr_train(s_genes, s_labels, config.lr_epochs, config.lr_rate, f)
            acc_sum = acc_sum + clear_lr_accuracy(w, b_test.astype(np.int64), y_test, f)
        votes = 0
        for cap, floor_ in thr * np.uint64(k):
            fail_w = int(fx.signed(np.array([cap]))[0]) < int(fx.signed(np.array([wle_sum]))[0])
            fail_a = int(fx.signed(np.array([acc_sum]))[0]) < int(fx.signed(np.array([floor_]))[0])
            votes += 1 if not (fail_w or fail_a) else 0
        bit = 1 if votes == thr.shape[0] else 0
        loops.append((h, bit))
        if bit == 1:
            if config.mode == FIRST_PASS:
                publish, h_selected = True, h
                break
            candidates.append((loop_index, wle_sum))
    if config.mode == EXHAUSTIVE and candidates:
        best = min(candidates, key=lambda c: int(fx.signed(np.array([c[1]]))[0]))
        publish, h_selected = True, config.hyperparams[best[0]]

    synthetic_cells = None
    if publish:
        b_all, cuts, means = clear_bin_train(genes, compute_means=True, f=f)
        mg, ml, mt = clear_noisy_marginals(b_all, labels, sigma_q, noise, f)
        n_out = config.synthetic_rows or n
        rng = generator_rng(config.seed, PUBLISH_CONTEXT)
        synth = generate_synthetic(fx.decode(mg, f), fx.decode(ml, f),
                                   fx.decode(mt, f), n_out, h_selected, rng)
        cells = np.zeros((n_out, d + 1), dtype=np.uint64)
        for g in range(d):
            cells[:, g] = means[g][synth[:, g]]
        cells[:, d] = synth[:, d].astype(np.uint64)
        synthetic_cells = cells
    return {"publish": publish, "h_selected": h_selected, "loops": loops,
            "synthetic": synthetic_cells}
