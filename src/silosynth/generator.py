"""Marginal-consistent synthetic data generation (cleartext by design).

The generate step runs in the clear on noisy, already-DP marginals: per
gene, a 4x5 gene-label table is initialized from the measured 2-way
marginal (negatives clipped) and iteratively proportionally fitted to the
1-way gene and label targets; rows are sampled as y ~ p(y) followed by
g_i ~ p(g_i | y) independently per gene. Inside the secure pipeline the
marginals are revealed to a generator enclave co-located with party 1 only,
as the one (K, 24d+5) sharing the measurement produces (the enclave alone
splits the opened cells into the gene, label and two-way blocks). All folds
of a step share one reveal and one re-share round: what the enclave
re-shares is party 1's additive term, parties 2 and 3 contribute zeros, and
one masked ``circuits.reshare`` replicates it.

In a tuning loop the enclave re-shares only what evaluation reads of the
sampled rows: their exact marginal counts and the logistic-regression
weights it trains on them (``generate_bridge``). Both are functions of the
noisy marginals alone, so computing them in the clear is post-processing
of DP output. The publish path re-shares what de-binning reads of the
rows: each gene cell's bin one-hot and the labels (``generate_rows``).
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import program, reshare_steps
from .evaluation import lr_train
from .marginals import GENE_DOMAIN, LABEL_DOMAIN, cell_counts, split_marginals
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareVector


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


def _enclave_steps(party: Party, ms: ShareVector, rows, iterations: int, master_seed: int,
                   contexts, shape, derive) -> ShareVector:
    """Reveal the (K, 24d+5) noisy marginal cells to the party-1 enclave,
    sample fold k's rows[k] rows from the generator stream of contexts[k],
    and re-share ``derive(rows)`` of every fold, (K, *shape), in one round."""
    with party.protocol("sdg"):
        opened, = yield [party.reveal_message(ms, 1, "noisy-marginals")]
        out = np.zeros((len(contexts),) + shape, dtype=np.uint64)
        if opened is not None:
            gene, label, two_way = split_marginals(fx.decode(opened, party.fp.frac_bits))
            for j, context in enumerate(contexts):
                out[j] = derive(generate_synthetic(gene[j], label[j], two_way[j], int(rows[j]), iterations,
                                                   generator_rng(master_seed, context)))
        return (yield from reshare_steps(party, out))


def generate_bridge_steps(party: Party, ms: ShareVector, rows, iterations: int, master_seed: int,
                          contexts: list[tuple[int, ...]], epochs: int,
                          learning_rate: float) -> tuple[ShareVector, ShareVector]:
    """A tuning loop's enclave step. Fold k's rows[k] synthetic rows are
    re-shared only as what evaluation reads of them: their exact marginal
    counts times 2^COUNT_BITS (``cell_counts``, K, 24d+5), in the canonical
    cell order, and the weights ``lr_train`` fits to them (K, d+1, 5)."""
    k, n_cells = ms.shape
    d = split_marginals(ms)[0].shape[1]
    def derive(synth):
        return np.concatenate([cell_counts(synth), lr_train(party, synth, epochs, learning_rate).ravel()])

    shares = yield from _enclave_steps(party, ms, rows, iterations, master_seed, contexts,
                                       (n_cells + (d + 1) * LABEL_DOMAIN,), derive)
    return shares[:, :n_cells], shares[:, n_cells:].reshape(k, d + 1, LABEL_DOMAIN)


generate_bridge = program(generate_bridge_steps)


def generate_rows(party: Party, ms: ShareVector, n_out: int, iterations: int,
                  master_seed: int, context: tuple[int, ...]) -> tuple[ShareVector, ShareVector]:
    """The publish path's enclave step: n_out rows sampled from the (1, 24d+5)
    noisy marginals, re-shared as what de-binning reads of them: each gene
    cell's bin as a 0/1 one-hot (1, n_out, d, 4), and the labels (1, n_out)."""
    d = split_marginals(ms)[0].shape[1]
    bins = np.arange(GENE_DOMAIN)
    shares = party.run(_enclave_steps(party, ms, [n_out], iterations, master_seed, [context],
                                      (n_out, d * GENE_DOMAIN + 1),
                                      lambda synth: np.column_stack([(synth[:, :d, None] == bins).reshape(n_out, -1),
                                                                     synth[:, d]])))
    return shares[..., :-1].reshape(1, n_out, d, GENE_DOMAIN), shares[..., -1]
