"""Marginal-consistent synthetic data generation (cleartext by design).

The generate step runs in the clear on noisy, already-DP marginals: per
gene, a 4x5 gene-label table is initialized from the measured 2-way
marginal (negatives clipped) and iteratively proportionally fitted to the
1-way gene and label targets; rows are sampled as y ~ p(y) followed by
g_i ~ p(g_i | y) independently per gene. Inside the secure pipeline the
marginals are revealed to a generator enclave co-located with party 1 only,
as the one (K, 24d+5) sharing the measurement produces (the enclave alone
splits the opened cells into the gene, label and two-way blocks), and the
sampled rows are re-shared before any downstream use: they are party
1's additive term, parties 2 and 3 contribute zeros, and one masked
``circuits.reshare`` round replicates them. All folds of a tuning loop share
one reveal and one re-share.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import reshare
from .marginals import GENE_DOMAIN, LABEL_DOMAIN, split_marginals
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareMatrix, ShareVector


def _normalized(vec: np.ndarray) -> np.ndarray:
    clipped = np.clip(vec, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        return np.full(vec.shape, 1.0 / vec.size)
    return clipped / total


def fit_gene_table(two_way: np.ndarray, gene_marginal: np.ndarray,
                   label_marginal: np.ndarray, iterations: int) -> np.ndarray:
    """IPF of a 4x5 table onto the 1-way gene/label targets.

    Works in count units so that consistent (noiseless) marginals are an
    exact fixed point: integer-valued counts sum exactly in float64, making
    every scale factor exactly 1.0.
    """
    table = np.clip(two_way.reshape(GENE_DOMAIN, LABEL_DOMAIN).astype(np.float64), 0.0, None)
    if table.sum() <= 0.0:
        table = np.full((GENE_DOMAIN, LABEL_DOMAIN), 1.0 / (GENE_DOMAIN * LABEL_DOMAIN))
    row_target = np.clip(np.asarray(gene_marginal, dtype=np.float64), 0.0, None)
    if row_target.sum() <= 0.0:
        row_target = np.full(GENE_DOMAIN, table.sum() / GENE_DOMAIN)
    col_target = np.clip(np.asarray(label_marginal, dtype=np.float64), 0.0, None)
    if col_target.sum() <= 0.0:
        col_target = np.full(LABEL_DOMAIN, table.sum() / LABEL_DOMAIN)
    for _ in range(iterations):
        rows = table.sum(axis=1)
        scale = np.divide(row_target, rows, out=np.zeros_like(rows), where=rows > 0)
        table = table * scale[:, None]
        cols = table.sum(axis=0)
        scale = np.divide(col_target, cols, out=np.zeros_like(cols), where=cols > 0)
        table = table * scale[None, :]
    return table


def generate_synthetic(gene_marg: np.ndarray, label_marg: np.ndarray,
                       two_way: np.ndarray, n_out: int, iterations: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Sample a binned synthetic dataset of shape (n_out, d+1).

    Marginals are the decoded (possibly noisy) measurements: gene (d,4),
    label (5,), two-way (d,20).
    """
    d = gene_marg.shape[0]
    p_label = _normalized(label_marg)
    cond = np.empty((d, LABEL_DOMAIN, GENE_DOMAIN))
    for g in range(d):
        table = fit_gene_table(two_way[g], gene_marg[g], label_marg, iterations)
        cols = table.sum(axis=0)
        for c in range(LABEL_DOMAIN):
            if cols[c] <= 0.0:
                cond[g, c] = np.full(GENE_DOMAIN, 1.0 / GENE_DOMAIN)
            else:
                cond[g, c] = table[:, c] / cols[c]

    out = np.empty((n_out, d + 1), dtype=np.int64)
    label_cdf = np.cumsum(p_label)
    y = np.searchsorted(label_cdf, rng.random(n_out), side="right")
    y = np.minimum(y, LABEL_DOMAIN - 1)
    out[:, d] = y
    for g in range(d):
        cdf = np.cumsum(cond[g], axis=1)          # (5, 4)
        u = rng.random(n_out)
        row_cdf = cdf[y]                          # (n_out, 4)
        out[:, g] = np.minimum((u[:, None] > row_cdf).sum(axis=1), GENE_DOMAIN - 1)
    return out


def generator_rng(master_seed: int, context: tuple[int, ...]) -> np.random.Generator:
    return CounterStream(derive_key(master_seed, "generator", *context)).generator_at()


def generate_bridge(party: Party, ms: ShareVector, rows, iterations: int,
                    master_seed: int, contexts: list[tuple[int, ...]]) -> ShareMatrix:
    """Reveal every fold's noisy marginals to the party-1 enclave, generate, re-share.

    ``ms`` holds the (K, 24d+5) noisy marginal cells. Fold k gets rows[k]
    rows from the generator stream of contexts[k], padded with all-zero rows
    to the longest fold; one reveal and one re-share round serve all folds.
    """
    k, d = split_marginals(ms)[0].shape[:2]
    rows = np.asarray(rows, dtype=np.int64)
    shape = (k, int(rows.max()), d + 1)
    f = party.fp.frac_bits
    with party.protocol("sdg"):
        opened = party.reveal_to(ms, 1, "noisy-marginals")
        cells = np.zeros(shape, dtype=np.uint64)
        if party.pid == 1:
            gene, label, two_way = split_marginals(fx.decode(opened, f))
            for j in range(k):
                rng = generator_rng(master_seed, contexts[j])
                synth = generate_synthetic(gene[j], label[j], two_way[j], int(rows[j]), iterations, rng)
                cells[j, : rows[j]] = fx.to_u64(synth)
        shares = reshare(party, cells)
    return ShareMatrix(shares, d, rows)
