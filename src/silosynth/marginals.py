"""Noisy marginal measurement over binned data via scaled one-hots.

For the gene domain {0,1,2,3} and label domain {0..4}, the Lagrange basis
polynomial of a domain point b is 1 at b and 0 at the rest of the domain.
Its numerator N_b(x) = prod_{j != b} (x - j) has degree at most 4, so it is
a public integer combination of the powers x, x^2, x^3 and x^4: the powers
are the only secret products (two rounds for any number of inputs).
``scaled_onehots_steps`` is the one place that knows the basis: it folds each
divisor N_b(b) = 2^v_b * o_b (o_b odd) into the public coefficients, which
then give exactly 2^v [x = b] in the ring, v the largest v_b of the domain:
2^GENE_BITS = 2 for the genes, 2^LABEL_BITS = 8 for the labels. Every
reader sums the one-hots before it divides by 2^v (per marginal cell here,
per bin in ``binning``).

The counts skip that division, because both their readers truncate anyway:
gene and label sums are scaled up to 2^COUNT_BITS = 2^(GENE_BITS +
LABEL_BITS), locally, and a two-way cell, a gene one-hot times a label
one-hot, is there already. Every count this module hands on, measured
(``marginal_counts``) or the enclave's (``cell_counts``), is the exact
count times 2^COUNT_BITS, below 2^63 for any count below 2^59 (the
preflight admits fewer than 2^20 rows); the noise step lifts it to scale f
in its one truncation, and the workload error drops COUNT_BITS in its own.
At sigma=0 the noisy marginals are bit-for-bit the brute-force counts at
scale f.

Measured workload: d 1-way gene marginals, the 1-way label marginal, and
the d gene-label 2-way marginals flattened to length 20 (index r*5 + f).
Every step from counting to the reveal holds them as one (K, 24d+5) sharing
in canonical cell order: the gene block (d, 4) row-major, the label block,
then the two-way block (d, 20) row-major; ``split_marginals`` cuts out the
blocks.
"""

from __future__ import annotations

import math

import numpy as np

from . import fixedpoint as fx
from .circuits import ONE, matmul_term, mul_shares_steps, program, reshare_steps, trunc_shares_steps
from .primitives import gauss01_steps
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares, stack_shares

GENE_DOMAIN = 4
LABEL_DOMAIN = 5


def measurement_count(n_genes: int) -> int:
    """Marginals in the measured workload: d gene, 1 label, d gene-label."""
    return 2 * n_genes + 1


def calibrate(eps_s: float, delta_s: float, m: int) -> float:
    """sigma_q of each of ``m`` measurements: a uniform sequential-composition
    split of the budget and the Gaussian-mechanism scale (sensitivity 1)."""
    if eps_s <= 0 or not 0 < delta_s < 1:
        raise ValueError("privacy budget must satisfy eps_s > 0 and 0 < delta_s < 1")
    if m < 1:
        raise ValueError("the measurement count must be positive")
    eps_q = eps_s / m
    delta_q = delta_s / m
    return math.sqrt(2.0 * math.log(1.25 / delta_q)) / eps_q


def _basis(m: int) -> tuple[np.ndarray, int]:
    """Coefficients (m, m) as ring words, constant term first, of the
    polynomials 2^v [x = b] on the domain {0..m-1}, one row per b, and v.

    Row b is the numerator N_b(x) = prod_{j != b} (x - j) times the inverse
    of the odd part o_b of N_b(b) = 2^v_b o_b, times 2^(v - v_b)."""
    rows = []
    for b in range(m):
        c = [1]
        for j in range(m):
            if j != b:
                c = [lo - j * hi for lo, hi in zip([0] + c, c + [0])]
        div = math.prod(b - j for j in range(m) if j != b)
        v_b = (abs(div) & -abs(div)).bit_length() - 1
        rows.append((c, pow(div >> v_b, -1, 1 << 64), v_b))
    v = max(v_b for _, _, v_b in rows)
    return fx.to_u64(np.array([[ci * inv << (v - v_b) for ci in c] for c, inv, v_b in rows],
                              dtype=object)), v


_GENE_BASIS, GENE_BITS = _basis(GENE_DOMAIN)
_LABEL_BASIS, LABEL_BITS = _basis(LABEL_DOMAIN)
# counts are handed on times 2^COUNT_BITS, the scale of a two-way cell
COUNT_BITS = GENE_BITS + LABEL_BITS


def _combine(party: Party, powers: list[ShareVector], basis: np.ndarray, mask: np.ndarray) -> ShareVector:
    """The one-hots sum_k basis[b, k] x^k (..., m) from the powers x, x^2, ...
    with the public ``mask`` folded into the coefficients: zero where it is 0."""
    rows = [party.add_public(sum((p.scale_by(c * mask) for p, c in zip(powers[1:], basis[b, 2:])),
                                 powers[0].scale_by(basis[b, 1] * mask)), basis[b, 0] * mask)
            for b in range(len(basis))]
    return stack_shares(rows, axis=-1)


def scaled_onehots_steps(party: Party, matrix: ShareMatrix) -> tuple[ShareVector, ShareVector]:
    """Every binned gene cell's one-hot times 2^GENE_BITS, (K, N, d, 4), and
    every label's one-hot times 2^LABEL_BITS, (K, N, 5); padding rows are 0.

    Two product rounds serve all cells, flattened into one sharing: x^2,
    then x^3 and the labels' x^4. Each one-hot is then a public integer
    combination of the powers.
    """
    labels, genes, mask = matrix.labels(), matrix.genes(), matrix.mask
    nl = labels.size
    x = concat_shares([labels.reshape(-1), genes.reshape(-1)])
    x2 = yield from mul_shares_steps(party, x, x)
    higher = yield from mul_shares_steps(party, concat_shares([x2, x2[:nl]]), concat_shares([x, x2[:nl]]))
    x3, x4 = higher[:x.size], higher[x.size:]
    gene_powers = [p[nl:].reshape(genes.shape) for p in (x, x2, x3)]
    label_powers = [p[:nl].reshape(labels.shape) for p in (x, x2, x3, x4)]
    return (_combine(party, gene_powers, _GENE_BASIS, mask[..., None]),
            _combine(party, label_powers, _LABEL_BASIS, mask))


def marginal_count_steps(party: Party, onehots: tuple[ShareVector, ShareVector]) -> ShareVector:
    """Exact secret counts times 2^COUNT_BITS of the measured workload, per
    fold, in the canonical cell order: (K, 24d+5), from ``scaled_onehots_steps``.

    The gene sums (scale 2^GENE_BITS) are scaled by 2^(COUNT_BITS -
    GENE_BITS), the label sums (2^LABEL_BITS) by 2^(COUNT_BITS -
    LABEL_BITS), and the two-way block is one matrix product per fold, gene
    one-hots (4d x N) times label one-hots (N x 5), at 2^COUNT_BITS already:
    1 round, no truncation. Exact in the ring; a count below 2^59 stays
    below 2^63.
    """
    genes, labels = onehots
    k, n, d = genes.shape[:3]
    lhs = genes.map(lambda w: w.transpose(0, 2, 3, 1).reshape(k, d * GENE_DOMAIN, n))   # (K, 4d, N)
    two_way = yield from reshare_steps(party, matmul_term(lhs, labels))
    return concat_shares([lhs.sum(axis=2).scale_by(ONE << np.uint64(COUNT_BITS - GENE_BITS)),
                          labels.sum(axis=1).scale_by(ONE << np.uint64(COUNT_BITS - LABEL_BITS)),
                          two_way.reshape(k, -1)], axis=1)


marginal_counts = program(marginal_count_steps)


def split_marginals(flat):
    """The gene (K, d, 4), label (K, 5) and two-way (K, d, 20) blocks of
    (K, 24d+5) marginal cells, as shares or opened words."""
    k, d = flat.shape[0], (flat.shape[1] - LABEL_DOMAIN) // (GENE_DOMAIN * (1 + LABEL_DOMAIN))
    g = GENE_DOMAIN * d
    return (flat[:, :g].reshape(k, d, GENE_DOMAIN), flat[:, g:g + LABEL_DOMAIN],
            flat[:, g + LABEL_DOMAIN:].reshape(k, d, GENE_DOMAIN * LABEL_DOMAIN))


def cell_counts(rows: np.ndarray) -> np.ndarray:
    """The exact counts times 2^COUNT_BITS of cleartext binned rows (n, d+1),
    genes then the label, in the canonical cell order: (24d+5,) ring words,
    the format ``marginal_counts`` returns (below 2^63 for fewer than 2^59 rows)."""
    genes, labels = rows[:, :-1], rows[:, -1]
    d = genes.shape[1]
    two_way = np.bincount((np.arange(d) * GENE_DOMAIN * LABEL_DOMAIN + genes * LABEL_DOMAIN
                           + labels[:, None]).ravel(), minlength=d * GENE_DOMAIN * LABEL_DOMAIN)
    gene = two_way.reshape(d, GENE_DOMAIN, LABEL_DOMAIN).sum(axis=2)
    counts = np.concatenate([gene.ravel(), np.bincount(labels, minlength=LABEL_DOMAIN), two_way])
    return fx.to_u64(counts) << np.uint64(COUNT_BITS)


def noisy_marginal_steps(party: Party, onehots: tuple[ShareVector, ShareVector], sigma_q: float):
    """The ``marginal_counts`` (times 2^COUNT_BITS) of ``scaled_onehots_steps``
    and their noisy marginals (``add_noise_steps``), both (K, 24d+5), so the
    workload error can reuse the counts: 13 rounds, the counts 1 and the
    noise 12."""
    counts = yield from marginal_count_steps(party, onehots)
    return counts, (yield from add_noise_steps(party, counts, sigma_q))


noisy_marginals = program(noisy_marginal_steps, "noisy_marg")


def add_noise_steps(party: Party, counts: ShareVector, sigma_q: float) -> ShareVector:
    """Exact ``marginal_counts`` (K, 24d+5) lifted to fixed-point scale plus
    independent Gaussian noise.

    One exact truncation by f of counts * 2^(2f - COUNT_BITS) + noise *
    encode(sigma_q) gives count * 2^f + floor(noise * sigma_q / 2^f) word for
    word, since adding a multiple of 2^f commutes with the floor: the noise
    draw 2 rounds and the truncation 10. The first loop counts the full data
    beside its folds' tail, so the publish path pays only these 12.
    The noise lies in [-6, 6], so that holds while n * 2^(2f) + 6 * 2^f *
    encode(sigma_q) < 2^63 for cells of at most n rows, which
    ``pipeline.preflight`` checks. At sigma_q = 0 the noise term is 0 and
    the counts come back at scale f unchanged.
    """
    f = party.fp.frac_bits
    noise = yield from gauss01_steps(party, counts.shape[1], counts.shape[0])
    lifted = counts.scale_by(ONE << np.uint64(2 * f - COUNT_BITS))
    return (yield from trunc_shares_steps(party, lifted + noise.scale_by(fx.encode_scalar(sigma_q, f)), f))
