"""Secure quantile binning across silos and its inverse.

Training columns are obliviously sorted, the 0.25/0.5/0.75 cut points are
linearly interpolated at public positions, and every cell is mapped to
3 - (x < Q0) - (x < Q1) - (x < Q2). Every function works on a batch of
datasets at once, on a leading axis: the folds of a tuning loop and, on the
first loop, the full data beside them. The sort only sorts the positions
the interpolation reads; it compares XOR-shared bits and hands back
arithmetic shares of those positions, so the quantiles and the binning stay
arithmetic. Held-out rows are binned with their fold's cuts in the same
comparisons as the training rows. Strict less-than follows the comparison
primitive, so a value equal to a cut is not below it. Per-bin means, for
inverse discretization, are computed only for the full data, beside the
first tuning loop (``pipeline.run_fold``).
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import (
    b2a_sum,
    matmul_shares,
    matmul_term,
    program,
    reshare_steps,
    select,
    trunc_shares,
    trunc_shares_steps,
)
from .marginals import GENE_BITS
from .primitives import div_fx_steps, lt, sort_columns
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares

QUANTILES = (0.25, 0.5, 0.75)


class DegenerateInputError(ValueError):
    pass


def quantile_positions(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per batch, the sorted position i each cut starts from and its
    interpolation weight toward position i + 1: two (K, 3) arrays."""
    rows = np.asarray(rows)
    if np.any(rows < 2):
        raise DegenerateInputError("quantile binning needs at least 2 rows")
    pos = (rows[:, None] - 1) * np.array(QUANTILES)
    i = np.floor(pos).astype(np.int64)
    return i, pos - i


def compute_quantiles(party: Party, sorted_cols: ShareVector, rows) -> ShareVector:
    """Interpolated quantiles of pre-sorted (K, N, d) columns at per-fold public positions.

    Fold k's data are its first rows[k] sorted rows; only the positions
    ``quantile_positions`` names are read, and a position read with weight 0
    adds exactly 0 whatever it holds. Returns the secret cut points, shape
    (K, d, 3), non-decreasing per gene.
    """
    f = party.fp.frac_bits
    i, frac = quantile_positions(rows)                        # (K, 3)
    fold = np.arange(i.shape[0])[:, None]
    base = sorted_cols[fold, i]                               # (K, 3, d)
    # positions where every fold sits on a row need no interpolation
    inter = np.any(frac != 0.0, axis=0)
    if np.any(inter):
        diff = sorted_cols[fold, i[:, inter] + 1] - base[:, inter]
        scaled = diff.scale_by(fx.encode(frac[:, inter], f)[:, :, None])
        base[:, inter] = base[:, inter] + trunc_shares(party, scaled, f)
    return base.map(np.swapaxes, 1, 2)


def bin_columns(party: Party, data: ShareVector, cuts: ShareVector, batch: np.ndarray) -> ShareVector:
    """Map every cell of data (L, d) to its bin index 3 - (x < Q0) - (x < Q1) - (x < Q2)
    in {0,1,2,3}, row l with the cuts (K, d, 3) of batch[l].

    Two levels of one comparison each: with b = (x < Q1), the bin is
    3 - 2b - (x < Q2 + b (Q0 - Q2)), which is the same because the cuts are
    non-decreasing. One b2a_sum converts both bits to the index. Each cut is
    gathered per row only for the step that reads it, which keeps the peak
    memory of the widest comparisons of a run down.
    """
    def q(j):
        return cuts[batch, :, j]
    b = lt(party, data, q(1))
    c = lt(party, data, select(party, b, q(2), q(0)))
    return party.add_public(-b2a_sum(party, [b, c], [2, 1]), np.uint64(3))


def bin_means_steps(party: Party, onehots: ShareVector, originals: ShareVector,
                    cuts: ShareVector) -> ShareVector:
    """Secret per-bin means, shape (K, d, 4), of the originals (K, N, d) by
    the cells' bin one-hots times 2^GENE_BITS = 2 (``scaled_onehots_steps``,
    (K, N, d, 4), padding rows 0), with oblivious empty-bin fallback to cut
    midpoints.

    Per (fold, gene), one batched matmul of the 4 x N one-hots with the N
    originals gives 2 S_b, and the one-hots' sums twice the counts: with the
    midpoints' 2 mid = c_j + c_(j+1), one exact truncation by GENE_BITS
    divides all three. It needs |S_b| < 2^62: encoded genes stay below
    2^(62-f) and the preflight admits fewer than 2^f rows.

    ``div_fx`` looks up each count in [0, N] in a public table, 4d(N + 1)
    words per batch, and takes 46 rounds after the 11 of the sums: 57. The
    first tuning loop runs them beside its own tail from the counts to the
    vote, the sums in the full data's counts' round (``pipeline.run_fold``).
    An empty bin's sum is 0, so its raw mean is exactly 0 and adding empty *
    fallback selects the fallback.
    """
    lhs = onehots.map(np.transpose, (0, 2, 3, 1))                     # (K, d, 4, N)
    rhs = originals.map(lambda w: np.swapaxes(w, 1, 2)[..., None])    # (K, d, N, 1)
    sums = yield from reshare_steps(party, matmul_term(lhs, rhs))
    acc = concat_shares([sums[..., 0], lhs.sum(axis=3), cuts[..., :2] + cuts[..., 1:]], axis=2)   # (K, d, 10)
    exact = yield from trunc_shares_steps(party, acc, GENE_BITS)
    fallback = concat_shares([cuts[..., :1], exact[..., 8:], cuts[..., 2:]], axis=2)
    return (yield from div_fx_steps(party, exact[..., :4], exact[..., 4:8], onehots.shape[1], fallback))


compute_bin_means = program(bin_means_steps)


def bin_train(party: Party, matrix: ShareMatrix, held_out: ShareMatrix):
    """Quantile binning of every batch's gene columns, and of ``held_out``'s
    batch k with batch k's cuts, in one round schedule.

    Returns the binned matrix (labels pass through), the cuts (K, d, 3) and
    the binned held-out matrix.
    """
    i, frac = quantile_positions(matrix.rows)
    read = np.zeros((matrix.folds, matrix.n_rows), dtype=bool)
    read[np.arange(matrix.folds)[:, None], np.concatenate([i, i + (frac != 0)], axis=1)] = True
    with party.protocol("bin"):
        with party.protocol("sort"):
            sorted_cols = sort_columns(party, matrix.genes(), matrix.rows, read)
        cuts = compute_quantiles(party, sorted_cols, matrix.rows)
        del sorted_cols                                       # freed before the widest comparisons
        binned, binned_held_out = bin_with_cuts(party, [matrix, held_out], cuts)
    return binned, cuts, binned_held_out


def bin_with_cuts(party: Party, mats: list[ShareMatrix], cuts: ShareVector) -> list[ShareMatrix]:
    """Bin batch k of every matrix with cuts[k] in one ``bin_columns`` call.

    Only data cells are compared: each batch's first rows[k] rows are
    flattened, each row compared with its batch's cuts, and the bins
    scattered back; padding rows get bin 0.
    """
    live = [np.nonzero(m.mask) for m in mats]                 # (batch, row) of each data row
    bins = concat_shares([m.genes()[k, r] for m, (k, r) in zip(mats, live)])
    if bins.shape[0]:
        batch = np.concatenate([k for k, _ in live])
        bins = bin_columns(party, bins, cuts, batch)
    out, start = [], 0
    for m, (k, r) in zip(mats, live):
        binned = party.const_share(np.zeros(m.genes().shape, np.uint64)).copy()
        binned[k, r] = bins[start:start + k.size]
        start += k.size
        out.append(m.with_columns(binned))
    return out


def inv_bin(party: Party, onehot: ShareVector, means: ShareVector) -> ShareVector:
    """Every gene cell's bin mean, (K, N, d), from its 0/1 bin one-hot
    (K, N, d, 4) and the secret ``means`` (K, d, 4): the inner product of
    the one-hot with its gene's means, one batched matmul (1 round, one
    word per cell)."""
    with party.protocol("inv_bin"):
        picked = matmul_shares(party, onehot.map(np.swapaxes, 1, 2), means[..., None])   # (K, d, N, 1)
    return picked[..., 0].map(np.swapaxes, 1, 2)
