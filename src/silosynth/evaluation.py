"""Secure evaluation of synthetic data: workload error and logistic regression.

Workload error is the mean L1 distance between the normalized exact
marginals of the real and synthetic datasets over the measured workload
(2d+1 marginals); nothing here is noised because the result stays secret.

The logistic-regression utility metric trains a multiclass model by
full-batch gradient descent on secret shares. Binned gene values {0..3} are
fed directly as integer features (plus a constant bias column), so forward
and gradient matmuls need no truncation. Softmax subtracts the row maximum,
takes a degree-5 polynomial exponential evaluated by Estrin's scheme and
clamped to [-8, 0] off its critical path, and divides by the row sum with
Goldschmidt steps that rely on the sum's public range [1, 5]: one epoch
costs 124 rounds, 112 of them in softmax. The general reciprocal primitive
is not used here. The softmax row maximum and the accuracy argmax are each
one ``select_max`` over the 5 classes: all 10 pairs in one comparison
(8 rounds), a two-level AND tree for the lowest-index one-hot (2) and one
injection (2), 12 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .circuits import b2a, matmul_shares, mul_shares, mul_shares_many, trunc_shares, trunc_shares_many
from .marginals import LABEL_DOMAIN, MarginalSet, flatten_marginals, indicator, marginal_counts, measurement_count
from .primitives import div_fx, eq_zero, is_negative, mul_fx, select, select_max
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares

# exp(t) on [-8, 0] as p(t/4)^4 with p a degree-5 least-squares fit of exp on
# [-2, 0] constrained to value/slope 1 at 0; composite relative error < 0.03%
# on [-4, 0] and the squaring keeps it positive everywhere.
EXP_POLY = (1.0, 1.0, 0.49851800548831027, 0.16104815581810794,
            0.03400828206221408, 0.003579794786255805)
SOFTMAX_FLOOR = -8.0
N_CLASSES = 5
# Every exponential lies in [0, 1] and the row maximum's is exactly 1.0, so
# a softmax denominator lies in [1, DENOM_MAX]. x0 = RECIP_ALPHA -
# RECIP_BETA * den is the minimax linear guess of 1/den there.
DENOM_MAX = float(N_CLASSES)
RECIP_ALPHA = 6 / 7
RECIP_BETA = 1 / 7
GOLDSCHMIDT_STEPS = 3
GUARD_BITS = 8


@dataclass
class MetricPair:
    """Secret evaluation metrics per fold, shape (K,); never opened inside the tuning loop."""

    wle: ShareVector
    accuracy: ShareVector


def wle(party: Party, real: MarginalSet, real_rows, synth: ShareMatrix) -> ShareVector:
    """Normalized workload error per fold, (K,), between the exact marginal
    counts ``real`` of datasets with ``real_rows`` rows and a binned batch."""
    with party.protocol("wle"):
        f = party.fp.frac_bits
        mu_synth = flatten_marginals(marginal_counts(party, synth))
        diff = (flatten_marginals(real).scale_by(fx.encode(1.0 / real_rows, f)[:, None])
                - mu_synth.scale_by(fx.encode(1.0 / synth.rows, f)[:, None]))
        total = select(party, is_negative(party, diff), diff, -diff).sum(axis=1)
        inv_count = fx.encode_scalar(1.0 / measurement_count(synth.n_genes), f)
        err = trunc_shares(party, total.scale_by(inv_count), f)
    return err


def _with_bias(party: Party, data: ShareMatrix) -> ShareVector:
    """(K, N, d+1) features: the gene columns and a bias column that is 0 on padding rows."""
    return concat_shares([data.genes(), party.const_share(data.mask[..., None])], axis=2)


def _exp(party: Party, t: ShareVector) -> ShareVector:
    """exp(max(t, SOFTMAX_FLOOR)) for t <= 0 as p(t/4)^4, p evaluated by Estrin.

    p = (1 + u) + u^2 (c2 + c3 u) + u^4 (c4 + c5 u) with u = t/4 takes three
    multiplicative levels. The public-coefficient terms stay at scale 2f and
    their products at scale 3f, so only u, u^2, u^4 and the sum are
    truncated; c0 = c1 = 1 makes the linear term 1 + t/4 exact.

    The clamp stays off the critical path: t runs unclamped beside one
    extra SOFTMAX_FLOOR element, the sign -[t - SOFTMAX_FLOOR < 0] (an
    exact truncation by 63, so 0 or -1) rides with the truncation of p, and
    one product at the end swaps in the floor's exponential wherever t lies
    below it. Values below the floor, wrapped or not, are selected away.
    """
    f = party.fp.frac_bits
    one = np.uint64(1) << np.uint64(f)
    c = [np.uint64(fx.encode_scalar(k, f)) for k in EXP_POLY]
    floor = np.uint64(fx.encode_scalar(SOFTMAX_FLOOR, f))
    shifted = party.add_public(t, np.negative(floor))
    t = concat_shares([t.reshape(-1), party.const_share(np.full(1, floor))])
    u, u2 = trunc_shares_many(party, [(t, 2), (mul_shares(party, t, t), f + 4)])
    lin = party.add_public(t.scale_by(one >> np.uint64(2)), one * one)
    del t
    quad = party.add_public(u.scale_by(c[3]), c[2] * one)
    quart = party.add_public(u.scale_by(c[5]), c[4] * one)
    u4, mid = mul_shares_many(party, [(u2, u2), (u2, quad)])
    del u, u2, quad
    u4 = trunc_shares(party, u4, f)
    p_sum = lin.scale_by(one) + mid + mul_shares(party, u4, quart)
    del lin, mid, u4, quart
    p, below = trunc_shares_many(party, [(p_sum, 2 * f), (shifted, 63)])
    del p_sum, shifted
    sq = mul_fx(party, p, p)
    e = mul_fx(party, sq, sq)
    e_floor = e[-1:]
    e = e[:-1].reshape(below.shape)
    return e + mul_shares(party, below, e - e_floor)


def bounded_div(party: Party, num: ShareVector, den: ShareVector) -> ShareVector:
    """num / den row-wise for num (..., k) and den (...) in the public range [1, DENOM_MAX].

    Goldschmidt division: the linear guess x0 = alpha - beta den leaves a
    relative error e0 = 1 - den x0 with |e0| <= 2/7 on [1, 5]; each step
    multiplies the numerators by 1 + e and squares e, and three steps leave
    e0^8 (below 3 ulp at f = 16). e and the numerators carry GUARD_BITS
    extra fractional bits, so the steps' truncations cost well below an ulp;
    the last step rounds to nearest. Four multiplicative levels.
    """
    f = party.fp.frac_bits
    one = np.uint64(1) << np.uint64(f)
    one_w = np.uint64(1) << np.uint64(f + GUARD_BITS)
    x0 = party.add_public(-den.scale_by(fx.encode_scalar(RECIP_BETA, f)),
                          np.uint64(fx.encode_scalar(RECIP_ALPHA, f)) * one)    # scale 2f
    dx, nx = mul_shares_many(party, [(den, x0), (num, x0[..., None])])        # scale 3f
    e, n = trunc_shares_many(party, [(party.add_public(-dx, one * one * one), 2 * f - GUARD_BITS),
                                     (nx, 2 * f - GUARD_BITS)])              # scale f + guard
    for _ in range(GOLDSCHMIDT_STEPS - 1):
        factor = party.add_public(e, one_w)[..., None]
        nf, ee = mul_shares_many(party, [(n, factor), (e, e)])
        n, e = trunc_shares_many(party, [(nf, f + GUARD_BITS), (ee, f + GUARD_BITS)])
    factor = party.add_public(e, one_w)[..., None]
    last = mul_shares(party, n, factor)
    half = np.uint64(1) << np.uint64(f + 2 * GUARD_BITS - 1)
    return trunc_shares(party, party.add_public(last, half), f + 2 * GUARD_BITS)


def _softmax_probs(party: Party, z: ShareVector) -> ShareVector:
    p = _exp(party, z - select_max(party, z)[0][..., None])
    return bounded_div(party, p, p.sum(axis=-1))


def _label_onehot(party: Party, labels: ShareVector) -> ShareVector:
    bits = indicator(party, labels, LABEL_DOMAIN)          # (5, ...)
    lifted = bits.scale_by(np.uint64(1) << np.uint64(party.fp.frac_bits))
    return lifted.map(np.moveaxis, 0, -1)                  # (..., 5)


def lr_train(party: Party, train: ShareMatrix, epochs: int, learning_rate: float) -> ShareVector:
    """Full-batch softmax-regression training on shares, one model per fold; deterministic.

    Returns the secret weights, (K, d+1, 5): gene rows, then the bias row.

    Padding rows have all-zero features, bias included, so they add nothing
    to the gradient; fold k's step is learning_rate / rows[k]. Input prep
    (bias column, one-hot labels) happens outside the lr ledger label so
    recorded bytes scale exactly linearly with the epoch count.
    """
    f = party.fp.frac_bits
    x = _with_bias(party, train)                           # (K, N, d+1), integer scale
    onehot = _label_onehot(party, train.labels())          # (K, N, 5), scale f
    shape = (train.folds, x.shape[2], N_CLASSES)
    w = party.const_share(np.zeros(shape, dtype=np.uint64))
    eta = fx.encode(learning_rate / train.rows, f)[:, None, None]
    xt = x.map(np.swapaxes, 1, 2)
    with party.protocol("lr"):
        for _ in range(epochs):
            logits = matmul_shares(party, x, w)            # scale f
            probs = _softmax_probs(party, logits)
            delta = probs - onehot
            grad = matmul_shares(party, xt, delta)         # scale f
            w = w - trunc_shares(party, grad.scale_by(eta), f)
    return w


def lr_accuracy(party: Party, weights: ShareVector, test: ShareMatrix) -> ShareVector:
    """Secret fraction of each fold's test rows whose predicted class equals the label: (K,)."""
    if np.any(test.rows == 0):
        raise ValueError("empty test set")
    f = party.fp.frac_bits
    with party.protocol("acc"):
        logits = matmul_shares(party, _with_bias(party, test), weights)
        _, predicted = select_max(party, logits, party.const_share(np.arange(N_CLASSES)))
        hits = b2a(party, eq_zero(party, predicted - test.labels())).scale_by(test.mask)
        scale = np.uint64(1) << np.uint64(f)
        acc = div_fx(party, hits.sum(axis=1).scale_by(scale),
                     party.const_share(test.rows.astype(np.uint64) * scale))
    return acc


def evaluate(party: Party, synth_train: ShareMatrix, real_test: ShareMatrix,
             real_counts: MarginalSet, real_rows, epochs: int, learning_rate: float) -> MetricPair:
    """Fidelity (workload error vs the real training rows' exact marginal
    counts) and utility (train on synthetic, test on held-out real rows), per
    fold; both metrics stay secret-shared."""
    with party.protocol("eval"):
        fidelity = wle(party, real_counts, real_rows, synth_train)
        model = lr_train(party, synth_train, epochs, learning_rate)
        acc = lr_accuracy(party, model, real_test)
    return MetricPair(fidelity, acc)
