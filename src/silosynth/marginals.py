"""Noisy marginal measurement over binned data via indicator polynomials.

For the gene domain {0,1,2,3} and label domain {0..4}, each indicator is a
Lagrange basis polynomial that is 1 at one domain point and 0 at the rest.
Its numerator N_b(x) = prod_{j != b} (x - j) has degree at most 4, so it is
a public integer combination of the powers x, x^2, x^3 and x^4: the powers
are the only secret products (two rounds for any number of inputs), and the
coefficients and the divisors D_b = N_b(b) are derived from the domain size.
Numerators are exact ring integers (binned cells live at integer scale),
accumulated per marginal cell and divided once by the exact divisor
D = 2^v * o with o odd (and signed): multiply by the modular inverse of o,
then an exact v-bit truncation. At sigma=0 the counts are bit-for-bit
equal to brute-force counting.

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
from .circuits import matmul_shares, mul_shares, trunc_shares
from .primitives import gauss01
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares, stack_shares

GENE_DOMAIN = 4
LABEL_DOMAIN = 5


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


def _odd_part_scale(acc: ShareVector, divisors: np.ndarray):
    """acc holds divisor*count exactly. Returns acc times the inverse of the
    divisor's signed odd part, and the divisor's power-of-two exponent: an
    exact truncation by it finishes the division."""
    div = [int(d) for d in np.ravel(divisors)]
    v = [(abs(d) & -abs(d)).bit_length() - 1 for d in div]
    inv = np.array([pow(d >> s, -1, 1 << 64) for d, s in zip(div, v)], dtype=object)
    shape = np.shape(divisors)
    return acc.scale_by(fx.to_u64(inv.reshape(shape))), np.reshape(v, shape)


def _numerators(party: Party, inputs) -> list[ShareVector]:
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


def indicator(party: Party, x: ShareVector, m: int) -> ShareVector:
    """The m indicator bits of x on the domain {0..m-1}, (m, ...): exactly one
    opens to 1 on the domain. Two product rounds and one exact truncation."""
    _, divisors = _lagrange(m)
    div = np.array(divisors).reshape((m,) + (1,) * len(x.shape))
    return trunc_shares(party, *_odd_part_scale(_numerators(party, [(x, m)])[0], div))


def marginal_counts(party: Party, matrix: ShareMatrix) -> ShareVector:
    """Exact secret counts (integer scale) of the measured workload, per fold,
    in the canonical cell order: (K, 24d+5).

    The label and gene numerators share their two product rounds. Padding
    rows are masked out of the numerators. The two-way block is one matrix
    product per fold: gene numerators (4d x N) times label numerators (N x 5).
    All cells are divided in one exact truncation.
    """
    k, n, d = matrix.folds, matrix.n_rows, matrix.n_genes
    mask = matrix.mask                                              # (K, N)
    ln, gn = _numerators(party, [(matrix.labels(), LABEL_DOMAIN), (matrix.genes(), GENE_DOMAIN)])
    lhs = gn.scale_by(mask[..., None]).map(
        lambda w: w.transpose(1, 3, 0, 2).reshape(k, d * GENE_DOMAIN, n))    # (K, 4d, N)
    rhs = ln.scale_by(mask).map(np.moveaxis, 0, -1)                 # (K, N, 5)
    acc = concat_shares([lhs.sum(axis=2), rhs.sum(axis=1),
                         matmul_shares(party, lhs, rhs).reshape(k, -1)], axis=1)
    gene_divs, label_divs = np.array(_lagrange(GENE_DOMAIN)[1]), np.array(_lagrange(LABEL_DOMAIN)[1])
    divisors = np.concatenate([np.tile(gene_divs, d), label_divs,
                               np.tile(np.outer(gene_divs, label_divs).ravel(), d)])
    return trunc_shares(party, *_odd_part_scale(acc, divisors))


def split_marginals(flat):
    """The gene (K, d, 4), label (K, 5) and two-way (K, d, 20) blocks of
    (K, 24d+5) marginal cells, as shares or opened words."""
    k, d = flat.shape[0], (flat.shape[1] - LABEL_DOMAIN) // (GENE_DOMAIN * (1 + LABEL_DOMAIN))
    g = GENE_DOMAIN * d
    return (flat[:, :g].reshape(k, d, GENE_DOMAIN), flat[:, g:g + LABEL_DOMAIN],
            flat[:, g + LABEL_DOMAIN:].reshape(k, d, GENE_DOMAIN * LABEL_DOMAIN))


def cell_counts(rows: np.ndarray) -> np.ndarray:
    """The exact counts of cleartext binned rows (n, d+1), genes then the
    label, in the canonical cell order: (24d+5,) ring words."""
    genes, labels = rows[:, :-1], rows[:, -1]
    d = genes.shape[1]
    two_way = np.bincount((np.arange(d) * GENE_DOMAIN * LABEL_DOMAIN + genes * LABEL_DOMAIN
                           + labels[:, None]).ravel(), minlength=d * GENE_DOMAIN * LABEL_DOMAIN)
    gene = two_way.reshape(d, GENE_DOMAIN, LABEL_DOMAIN).sum(axis=2)
    return fx.to_u64(np.concatenate([gene.ravel(), np.bincount(labels, minlength=LABEL_DOMAIN), two_way]))


def noisy_marginals(party: Party, matrix: ShareMatrix, sigma_q: float):
    """Exact counts lifted to fixed-point scale plus independent Gaussian noise.

    Returns the exact counts (integer scale) and the noisy marginals, both
    (K, 24d+5), so the workload error can reuse the counts. At sigma_q = 0
    the noise encodes to 0 and its exact truncation is 0: the counts come
    back unchanged.
    """
    f = party.fp.frac_bits
    with party.protocol("noisy_marg"):
        counts = marginal_counts(party, matrix)
        noise = gauss01(party, counts.shape[1], folds=counts.shape[0])
        scaled = trunc_shares(party, noise.scale_by(fx.encode_scalar(sigma_q, f)), f)
        return counts, counts.scale_by(np.uint64(1) << np.uint64(f)) + scaled
