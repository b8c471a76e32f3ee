"""Secure quantile binning across silos and its inverse.

Training columns are obliviously sorted, the 0.25/0.5/0.75 cut points are
linearly interpolated at public positions, and every cell is mapped to
3 - (x < Q0) - (x < Q1) - (x < Q2). Every function works on all folds of a
tuning loop at once, on a leading fold axis. Strict less-than follows the
comparison primitive, so a value equal to a cut is not below it. Per-bin
means are kept secret-shared for later inverse discretization;
held-out data is binned with the training cuts only (no sort, no means).
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import b2a_sum, inject, mul_shares, trunc_shares
from .marginals import GENE_DOMAIN, indicator
from .primitives import div_fx, eq_zero, lt, select, sort_columns
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares, stack_shares

QUANTILES = (0.25, 0.5, 0.75)


class DegenerateInputError(ValueError):
    pass


def compute_quantiles(party: Party, sorted_cols: ShareVector, rows) -> ShareVector:
    """Interpolated quantiles of pre-sorted (K, N, d) columns at per-fold public positions.

    Fold k's data are its first rows[k] sorted rows. Returns the secret cut
    points, shape (K, d, 3), non-decreasing per gene.
    """
    rows = np.asarray(rows)
    if np.any(rows < 2):
        raise DegenerateInputError("quantile binning needs at least 2 rows")
    f = party.fp.frac_bits
    pos = (rows[:, None] - 1) * np.array(QUANTILES)          # (K, 3)
    i = np.floor(pos).astype(np.int64)
    frac = pos - i
    fold = np.arange(rows.size)[:, None]
    base = sorted_cols[fold, i]                               # (K, 3, d)
    # positions where every fold sits on a row need no interpolation
    inter = np.any(frac != 0.0, axis=0)
    if np.any(inter):
        diff = sorted_cols[fold, i[:, inter] + 1] - base[:, inter]
        scaled = diff.scale_by(fx.encode(frac[:, inter], f)[:, :, None])
        base[:, inter] = base[:, inter] + trunc_shares(party, scaled, f)
    return base.map(np.swapaxes, 1, 2)


def bin_columns(party: Party, data: ShareVector, cuts: ShareVector) -> ShareVector:
    """Map every cell to its bin index 3 - (x < Q0) - (x < Q1) - (x < Q2) in {0,1,2,3}.

    Two levels of one comparison each: with b = (x < Q1), the bin is
    3 - 2b - (x < Q2 + b (Q0 - Q2)), which is the same because the cuts are
    non-decreasing. One b2a_sum converts both bits to the index. Shapes:
    data (..., N, d), cuts (..., d, 3).
    """
    q0, q1, q2 = (cuts[..., None, :, j] for j in range(3))   # (..., 1, d)
    b = lt(party, data, q1)
    c = lt(party, data, select(party, b, q2, q0))
    return party.add_public(-b2a_sum(party, [b, c], [2, 1]), np.uint64(3))


def compute_bin_means(party: Party, binned: ShareVector, originals: ShareVector,
                      cuts: ShareVector, mask: np.ndarray) -> ShareVector:
    """Secret per-bin means, shape (K, d, 4), over the (K, N) ``mask``ed rows,
    with oblivious empty-bin fallback to cut midpoints.

    An empty bin's sum is 0, so its raw mean is exactly 0 and adding
    empty * fallback selects the fallback. One bit injection of the empty
    bit into (1, fallback) gives that term and the arithmetic empty bit the
    denominators need.
    """
    f = party.fp.frac_bits
    onehot = indicator(party, binned, GENE_DOMAIN).scale_by(mask[..., None])   # (4, K, N, d)
    sums = mul_shares(party, onehot, originals).sum(axis=2)           # (4, K, d)
    counters = onehot.sum(axis=2)

    c = cuts.map(np.moveaxis, -1, 0)                                  # (3, K, d)
    inner = trunc_shares(party, c[:2] + c[1:], 1)
    fallback = concat_shares([c[:1], inner, c[2:]], axis=0)           # (4, K, d)
    ones = party.const_share(np.ones(counters.shape, dtype=np.uint64))
    picked = inject(party, eq_zero(party, counters), stack_shares([ones, fallback]))
    denom = (counters + picked[0]).scale_by(np.uint64(1) << np.uint64(f))
    return (div_fx(party, sums, denom) + picked[1]).map(np.moveaxis, 0, -1)


def bin_train(party: Party, matrix: ShareMatrix, compute_means: bool = True):
    """Quantile binning of every fold's gene columns (training path).

    Returns the binned matrix (labels pass through), the cuts, and the bin
    means (None when compute_means is off, the optimization for folds that
    never de-bin).
    """
    genes = matrix.genes()
    with party.protocol("bin"):
        with party.protocol("sort"):
            sorted_cols = sort_columns(party, genes, matrix.rows)
        cuts = compute_quantiles(party, sorted_cols, matrix.rows)
        binned = bin_columns(party, genes, cuts)
        means = compute_bin_means(party, binned, genes, cuts, matrix.mask) if compute_means else None
    return matrix.with_columns(binned), cuts, means


def bin_with_cuts(party: Party, matrix: ShareMatrix, cuts: ShareVector) -> ShareMatrix:
    """Bin held-out rows with training cuts: two comparisons and a product per cell."""
    with party.protocol("bin_test"):
        if matrix.n_rows == 0:
            return matrix
        binned = bin_columns(party, matrix.genes(), cuts)
    return matrix.with_columns(binned)


def inv_bin(party: Party, matrix: ShareMatrix, means: ShareVector) -> ShareMatrix:
    """Replace every binned gene cell with its bin's secret mean (``means`` (K, d, 4))."""
    with party.protocol("inv_bin"):
        onehot = indicator(party, matrix.genes(), GENE_DOMAIN)        # (4, K, N, d)
        per_bin = means.map(np.moveaxis, -1, 0)[:, :, None]           # (4, K, 1, d)
        debinned = mul_shares(party, onehot, per_bin).sum(axis=0)
    return matrix.with_columns(debinned)
