"""Evaluation of synthetic data: workload error and logistic-regression utility.

Workload error is the mean L1 distance between the normalized exact
marginals of a fold's real training rows and of its synthetic rows over the
measured workload (2d+1 marginals); utility is the accuracy, on the fold's
held-out real rows, of a softmax regression trained on the synthetic rows.
The party-1 generator enclave samples those rows from the noisy marginals,
so it counts them and trains the model itself, in the clear (post-processing
of DP output), and re-shares only counts and weights. What reads real rows
runs on shares, and both metrics stay secret.

The trainer (``lr_train``) is full-batch gradient descent on ring words with
the protocols' fixed-point arithmetic: integer bin features and a bias
column, so the logits and the gradient need no truncation; softmax with a
clamped polynomial exponential and a Goldschmidt division whose products
reach scale 3f, which is why frac_bits stays at most 20. The accuracy is 32
rounds on its own: the logits 1, the argmax over the 5 classes
(``select_max``) 12, the hits 9, and their division by the public test-row
count (``div_public``) one truncation, 10. The workload error is 20: a sign
8, a selection 2 and a truncation 10. Both are ``lockstep`` programs, and
``evaluate`` runs them side by side: the sign joins the argmax's
comparison, the selection its read-out, and the two truncations become
one, so a loop's evaluation takes the accuracy's 32 rounds.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import b2a, lockstep, matmul_shares, program, select, trunc_shares
from .marginals import COUNT_BITS, measurement_count, split_marginals
from .primitives import div_public, eq_zero, is_negative, select_max
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
# a softmax denominator lies in [1, N_CLASSES]. x0 = RECIP_ALPHA -
# RECIP_BETA * den is the minimax linear guess of 1/den there.
RECIP_ALPHA = 6 / 7
RECIP_BETA = 1 / 7
GOLDSCHMIDT_STEPS = 3
GUARD_BITS = 8


def wle_steps(party: Party, real: ShareVector, synth: ShareVector, rows) -> ShareVector:
    """Normalized workload error per fold, (K,), between the exact marginal
    counts times 2^COUNT_BITS ``real`` and ``synth`` (K, 24d+5) of two
    datasets of ``rows`` rows each.

    Each cell's difference is scaled by encode(1/rows), the absolute values
    summed, and the sum scaled by encode(1/(2d+1)) and truncated once by
    f + COUNT_BITS. A marginal's L1 distance is at most 2 rows, so that sum's
    product stays near 2^(2f + COUNT_BITS + 1), below 2^46 at f = 20.
    """
    f = party.fp.frac_bits
    diff = (real - synth).scale_by(fx.encode(1.0 / np.asarray(rows), f)[:, None])
    negative = yield is_negative, diff
    total = (yield from select.steps(party, negative, diff, -diff)).sum(axis=1)
    d = split_marginals(real)[0].shape[1]
    inv_count = fx.encode_scalar(1.0 / measurement_count(d), f)
    return (yield trunc_shares, total.scale_by(inv_count), f + COUNT_BITS)


wle = program(wle_steps, "wle")


def _softmax(z: np.ndarray, f: int) -> np.ndarray:
    """Row softmax of (n, N_CLASSES) logit words on the scale-f grid.

    exp(t), t = max(z - row max, SOFTMAX_FLOOR), is p(t/4)^4 with p by
    Estrin: (1 + u) + u^2 (c2 + c3 u) + u^4 (c4 + c5 u), u = t/4, the
    public-coefficient terms at scale 2f and their products at scale 3f.
    The row sum, in [1, N_CLASSES], is divided out from the linear guess
    x0 = alpha - beta den by Goldschmidt steps that carry GUARD_BITS extra
    fractional bits; the last step rounds to nearest.
    """
    one = np.uint64(1) << np.uint64(f)
    s = fx.signed(z)
    t = np.maximum(s - s.max(axis=1, keepdims=True), fx.signed(fx.encode(SOFTMAX_FLOOR, f))).view(np.uint64)
    c = [np.uint64(fx.encode_scalar(k, f)) for k in EXP_POLY]
    u, u2 = fx.truncate(t, 2), fx.truncate(t * t, f + 4)
    u4 = fx.truncate(u2 * u2, f)
    p_sum = (t * (one >> np.uint64(2)) + one * one) * one + u2 * (u * c[3] + c[2] * one) \
        + u4 * (u * c[5] + c[4] * one)
    p = fx.truncate(p_sum, 2 * f)
    sq = fx.truncate(p * p, f)
    e = fx.truncate(sq * sq, f)

    den = e.sum(axis=1, dtype=np.uint64)
    guard = f + GUARD_BITS
    one_w = np.uint64(1) << np.uint64(guard)
    x0 = np.uint64(fx.encode_scalar(RECIP_ALPHA, f)) * one - den * np.uint64(fx.encode_scalar(RECIP_BETA, f))
    err = fx.truncate(one * one * one - den * x0, 2 * f - GUARD_BITS)
    num = fx.truncate(e * x0[:, None], 2 * f - GUARD_BITS)
    for _ in range(GOLDSCHMIDT_STEPS - 1):
        num, err = fx.truncate(num * (err + one_w)[:, None], guard), fx.truncate(err * err, guard)
    half = np.uint64(1) << np.uint64(guard + GUARD_BITS - 1)
    return fx.truncate(num * (err + one_w)[:, None] + half, guard + GUARD_BITS)


def lr_train(party: Party, rows: np.ndarray, epochs: int, learning_rate: float) -> np.ndarray:
    """The enclave's trainer: full-batch softmax regression on sampled rows
    (n, d+1), binned genes then the label, in the clear on ring words.

    Returns the (d+1, N_CLASSES) weights at scale f: gene rows, then the
    bias row. The step is learning_rate / n. Deterministic.
    """
    f = party.fp.frac_bits
    x = rows.astype(np.uint64)
    x[:, -1] = 1                                           # the label column becomes the bias
    onehot = (rows[:, -1:] == np.arange(N_CLASSES)).astype(np.uint64) << np.uint64(f)
    eta = np.uint64(fx.encode_scalar(learning_rate / len(rows), f))
    w = np.zeros((x.shape[1], N_CLASSES), dtype=np.uint64)
    for _ in range(epochs):
        grad = x.T @ (_softmax(x @ w, f) - onehot)         # scale f
        w -= fx.truncate(grad * eta, f)
    return w


def _with_bias(party: Party, data: ShareMatrix) -> ShareVector:
    """(K, N, d+1) features: the gene columns and a bias column that is 0 on padding rows."""
    return concat_shares([data.genes(), party.const_share(data.mask[..., None])], axis=2)


def accuracy_steps(party: Party, weights: ShareVector, test: ShareMatrix) -> ShareVector:
    """Secret fraction of each fold's test rows whose predicted class equals the label: (K,)."""
    if np.any(test.rows == 0):
        raise ValueError("empty test set")
    logits = matmul_shares(party, _with_bias(party, test), weights)
    predicted = yield from select_max.steps(party, logits, np.arange(N_CLASSES))
    hits = b2a(party, eq_zero(party, predicted - test.labels())).scale_by(test.mask)
    return (yield from div_public.steps(party, hits.sum(axis=1), test.rows))


lr_accuracy = program(accuracy_steps, "acc")


def evaluate(party: Party, real_counts: ShareVector, synth_counts: ShareVector, rows,
             weights: ShareVector, real_test: ShareMatrix) -> tuple[ShareVector, ShareVector]:
    """Fidelity (workload error between the exact marginal counts of the real
    training folds and of the synthetic folds, ``rows`` rows each) and
    utility (accuracy on the held-out real rows of the weights the enclave
    trained on the synthetic rows), per fold: secret (K,) workload errors
    and accuracies, never opened inside the tuning loop.

    The accuracy leads the ``lockstep`` and the workload error joins its
    sign, selection and truncation: 32 rounds. Steps of one metric alone
    count under ``acc`` or ``wle``, the shared ones under ``eval``."""
    with party.protocol("eval"):
        acc, fidelity = lockstep(party, [accuracy_steps(party, weights, real_test),
                                         wle_steps(party, real_counts, synth_counts, rows)], ["acc", "wle"])
    return fidelity, acc
