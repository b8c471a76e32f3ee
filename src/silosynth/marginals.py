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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .circuits import matmul_shares, mul_shares_many, trunc_shares, trunc_shares_many
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


@dataclass
class MarginalSet:
    """Secret marginals at fixed-point scale, per fold: (K,d,4) gene, (K,5) label,
    (K,d,20) two-way."""

    gene: ShareVector
    label: ShareVector
    gene_label: ShareVector


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

    Two product rounds serve all inputs: x^2, then x^3 and (for m = 5) x^4.
    Each numerator is then a public integer combination of the powers; only
    N_0 has a constant term.
    """
    squares = mul_shares_many(party, [(x, x) for x, _ in inputs])
    higher = iter(mul_shares_many(party, [pair for (x, m), x2 in zip(inputs, squares)
                                          for pair in [(x2, x), (x2, x2)][:m - 3]]))
    out = []
    for (x, m), x2 in zip(inputs, squares):
        powers = [x, x2] + [next(higher) for _ in range(m - 3)]
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


def marginal_counts(party: Party, matrix: ShareMatrix) -> MarginalSet:
    """Exact secret counts (integer scale) of the measured workload, per fold.

    The label and gene numerators share their two product rounds. Padding
    rows are masked out of the numerators. The two-way block is one matrix
    product per fold: gene numerators (4d x N) times label numerators (N x 5).
    """
    k, n, d = matrix.folds, matrix.n_rows, matrix.n_genes
    mask = matrix.mask                                              # (K, N)
    ln, gn = _numerators(party, [(matrix.labels(), LABEL_DOMAIN), (matrix.genes(), GENE_DOMAIN)])
    ln = ln.scale_by(mask)                                          # (5, K, N)
    gn = gn.scale_by(mask[..., None])                               # (4, K, N, d)

    lhs = gn.map(lambda w: np.moveaxis(w, 0, 1).swapaxes(2, 3).reshape(k, GENE_DOMAIN * d, n))
    rhs = ln.map(lambda w: np.moveaxis(w, 0, -1))                   # (K, N, 5)
    acc2 = matmul_shares(party, lhs, rhs)                           # (K, 4d, 5)
    acc2 = acc2.map(lambda w: w.reshape(k, GENE_DOMAIN, d, LABEL_DOMAIN)
                    .transpose(1, 3, 0, 2).reshape(GENE_DOMAIN * LABEL_DOMAIN, k, d))
    gene_divs, label_divs = np.array(_lagrange(GENE_DOMAIN)[1]), np.array(_lagrange(LABEL_DOMAIN)[1])
    gene, label, two_way = trunc_shares_many(party, [
        _odd_part_scale(gn.sum(axis=2), gene_divs[:, None, None]),                      # (4, K, d)
        _odd_part_scale(ln.sum(axis=2), label_divs[:, None]),                           # (5, K)
        _odd_part_scale(acc2, np.outer(gene_divs, label_divs).reshape(-1, 1, 1)),       # (20, K, d)
    ])
    return MarginalSet(gene.map(np.moveaxis, 0, -1), label.map(np.moveaxis, 0, -1),
                       two_way.map(np.moveaxis, 0, -1))


def flatten_marginals(ms: MarginalSet) -> ShareVector:
    """Canonical per-fold cell order: gene block (row-major), label, two-way block."""
    k = ms.label.shape[0]
    return concat_shares([m.reshape(k, -1) for m in (ms.gene, ms.label, ms.gene_label)], axis=1)


def unflatten_marginals(flat, d: int) -> MarginalSet:
    """Inverse of flatten_marginals; also reads opened (K, cells) arrays."""
    k = flat.shape[0]
    g = flat[:, :GENE_DOMAIN * d].reshape(k, d, GENE_DOMAIN)
    lab = flat[:, GENE_DOMAIN * d:GENE_DOMAIN * d + LABEL_DOMAIN]
    gl = flat[:, GENE_DOMAIN * d + LABEL_DOMAIN:].reshape(k, d, GENE_DOMAIN * LABEL_DOMAIN)
    return MarginalSet(g, lab, gl)


def noisy_marginals(party: Party, matrix: ShareMatrix, sigma_q: float):
    """Exact counts lifted to fixed-point scale plus independent Gaussian noise.

    Returns the exact counts (integer scale) and the noisy marginals, so the
    workload error can reuse the counts.
    """
    f = party.fp.frac_bits
    with party.protocol("noisy_marg"):
        counts = marginal_counts(party, matrix)
        flat = flatten_marginals(counts).scale_by(np.uint64(1) << np.uint64(f))
        if sigma_q > 0.0:
            noise = gauss01(party, flat.shape[1], folds=flat.shape[0])
            scaled = trunc_shares(party, noise.scale_by(fx.encode_scalar(sigma_q, f)), f)
            flat = flat + scaled
        return counts, unflatten_marginals(flat, matrix.n_genes)
