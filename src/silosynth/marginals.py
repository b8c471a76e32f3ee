"""Noisy marginal measurement over binned data via Lagrange numerators.

For the gene domain {0,1,2,3} and label domain {0..4}, the Lagrange basis
polynomial of a domain point b is 1 at b and 0 at the rest of the domain.
Its numerator N_b(x) = prod_{j != b} (x - j) has degree at most 4, so it is
a public integer combination of the powers x, x^2, x^3 and x^4: the powers
are the only secret products (two rounds for any number of inputs), and the
coefficients and the divisors D_b = N_b(b) are derived from the domain size.
Numerators are exact ring integers (binned cells live at integer scale).
They are never divided one cell at a time: every consumer sums them first
(per marginal cell here, per bin in ``binning``) and divides the sums once
by the exact divisor D = 2^v * o with o odd (and signed): multiply by the
modular inverse of o, then an exact v-bit truncation.

The counts skip that truncation, because both their readers truncate
anyway. A cell's divisor holds at most 2^COUNT_BITS (the two-way cell of
gene 0 and label 0: (-6) * 24 = -2^4 * 9), so after the odd part the sum is
scaled by 2^(COUNT_BITS - v), locally. Every count this module hands on,
measured (``marginal_counts``) or the enclave's (``cell_counts``), is the
exact count times 2^COUNT_BITS, below 2^63 for any count below 2^59 (the
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
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .circuits import ONE, matmul_shares, mul_shares, trunc_shares
from .primitives import gauss01
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares, stack_shares

GENE_DOMAIN = 4
LABEL_DOMAIN = 5
# counts are handed on times 2^COUNT_BITS, the largest power of two in a cell's divisor
COUNT_BITS = 4


def measurement_count(n_genes: int) -> int:
    """Marginals in the measured workload: d gene, 1 label, d gene-label."""
    return 2 * n_genes + 1


@dataclass(frozen=True)
class NoiseCalibration:
    eps_s: float
    delta_s: float
    measurement_count: int
    eps_q: float
    delta_q: float
    sigma_q: float


def calibrate(eps_s: float, delta_s: float, measurement_count: int) -> NoiseCalibration:
    """Uniform sequential-composition split and Gaussian-mechanism scale (sensitivity 1)."""
    if eps_s <= 0 or not 0 < delta_s < 1:
        raise ValueError("privacy budget must satisfy eps_s > 0 and 0 < delta_s < 1")
    if measurement_count < 1:
        raise ValueError("measurement_count must be positive")
    eps_q = eps_s / measurement_count
    delta_q = delta_s / measurement_count
    sigma_q = math.sqrt(2.0 * math.log(1.25 / delta_q)) / eps_q
    return NoiseCalibration(eps_s, delta_s, measurement_count, eps_q, delta_q, sigma_q)


def _lagrange(m: int):
    """Coefficients (constant term first) of each numerator
    N_b(x) = prod_{j != b} (x - j) on the domain {0..m-1}, and the divisors
    D_b = N_b(b), in plain integers."""
    coeffs = []
    for b in range(m):
        c = [1]
        for j in range(m):
            if j != b:
                c = [lo - j * hi for lo, hi in zip([0] + c, c + [0])]
        coeffs.append(c)
    return coeffs, [math.prod(b - j for j in range(m) if j != b) for b in range(m)]


# N_b(b) of the gene domain: -6, 2, -2, 6, each twice an odd number
GENE_DIVISORS = np.array(_lagrange(GENE_DOMAIN)[1])


def odd_part_scale(acc: ShareVector, divisors: np.ndarray):
    """acc holds divisor*count exactly. Returns acc times the inverse of the
    divisor's signed odd part, and the divisor's power-of-two exponent: an
    exact truncation by it finishes the division."""
    div = [int(d) for d in np.ravel(divisors)]
    v = [(abs(d) & -abs(d)).bit_length() - 1 for d in div]
    inv = np.array([pow(d >> s, -1, 1 << 64) for d, s in zip(div, v)], dtype=object)
    shape = np.shape(divisors)
    return acc.scale_by(fx.to_u64(inv.reshape(shape))), np.reshape(v, shape)


def numerators(party: Party, inputs) -> list[ShareVector]:
    """The stacked Lagrange numerators (m, ...) of every (x, m) input, m in {4, 5}.

    Two product rounds serve all inputs, flattened into one sharing: x^2,
    then x^3 and (for the m = 5 inputs) x^4. Each numerator is then a public
    integer combination of the powers; only N_0 has a constant term.
    """
    x = concat_shares([v.reshape(-1) for v, _ in inputs])
    ends = np.cumsum([v.size for v, _ in inputs])
    spans = [slice(end - v.size, end) for (v, _), end in zip(inputs, ends)]
    x2 = mul_shares(party, x, x)
    fives = [x2[s] for s, (_, m) in zip(spans, inputs) if m == 5]
    higher = mul_shares(party, concat_shares([x2] + fives), concat_shares([x] + fives))
    out, x4_at = [], x.size                     # x^3 of every input, then the x^4 block
    for (v, m), s in zip(inputs, spans):
        powers = [v] + [p[s].reshape(v.shape) for p in (x2, higher)]
        if m == 5:
            powers.append(higher[x4_at:x4_at + v.size].reshape(v.shape))
            x4_at += v.size
        coeffs = fx.to_u64(np.array(_lagrange(m)[0]))                 # (m, m)
        rows = [sum((p.scale_by(c) for p, c in zip(powers[1:], coeffs[b, 2:])),
                    powers[0].scale_by(coeffs[b, 1])) for b in range(m)]
        rows[0] = party.add_public(rows[0], coeffs[0, 0])
        out.append(stack_shares(rows))
    return out


def marginal_counts(party: Party, matrix: ShareMatrix) -> ShareVector:
    """Exact secret counts times 2^COUNT_BITS of the measured workload, per
    fold, in the canonical cell order: (K, 24d+5).

    The label and gene numerators share their two product rounds. Padding
    rows are masked out of the numerators. The two-way block is one matrix
    product per fold: gene numerators (4d x N) times label numerators (N x 5).
    Each cell's sum D * count is scaled by the inverse of D's odd part, which
    leaves 2^v * count, and then by 2^(COUNT_BITS - v): 3 rounds, no
    truncation. Exact in the ring; a count below 2^59 stays below 2^63.
    """
    k, n, d = matrix.folds, matrix.n_rows, matrix.n_genes
    mask = matrix.mask                                              # (K, N)
    ln, gn = numerators(party, [(matrix.labels(), LABEL_DOMAIN), (matrix.genes(), GENE_DOMAIN)])
    lhs = gn.scale_by(mask[..., None]).map(
        lambda w: w.transpose(1, 3, 0, 2).reshape(k, d * GENE_DOMAIN, n))    # (K, 4d, N)
    rhs = ln.scale_by(mask).map(np.moveaxis, 0, -1)                 # (K, N, 5)
    acc = concat_shares([lhs.sum(axis=2), rhs.sum(axis=1),
                         matmul_shares(party, lhs, rhs).reshape(k, -1)], axis=1)
    label_divs = np.array(_lagrange(LABEL_DOMAIN)[1])
    divisors = np.concatenate([np.tile(GENE_DIVISORS, d), label_divs,
                               np.tile(np.outer(GENE_DIVISORS, label_divs).ravel(), d)])
    scaled, v = odd_part_scale(acc, divisors)
    return scaled.scale_by(ONE << fx.to_u64(COUNT_BITS - v))


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


def noisy_marginals(party: Party, matrix: ShareMatrix, sigma_q: float):
    """Exact counts lifted to fixed-point scale plus independent Gaussian noise.

    Returns the ``marginal_counts`` (times 2^COUNT_BITS) and the noisy
    marginals, both (K, 24d+5), so the workload error can reuse the counts.
    One exact truncation by f of counts * 2^(2f - COUNT_BITS) + noise *
    encode(sigma_q) gives count * 2^f + floor(noise * sigma_q / 2^f) word for
    word, since adding a multiple of 2^f commutes with the floor: 15 rounds.
    The noise lies in [-6, 6], so that holds while n * 2^(2f) + 6 * 2^f *
    encode(sigma_q) < 2^63 for cells of at most n rows, which
    ``pipeline.preflight`` checks. At sigma_q = 0 the noise term is 0 and
    the counts come back at scale f unchanged.
    """
    f = party.fp.frac_bits
    with party.protocol("noisy_marg"):
        counts = marginal_counts(party, matrix)
        noise = gauss01(party, counts.shape[1], folds=counts.shape[0])
        lifted = counts.scale_by(ONE << np.uint64(2 * f - COUNT_BITS))
        return counts, trunc_shares(party, lifted + noise.scale_by(fx.encode_scalar(sigma_q, f)), f)
