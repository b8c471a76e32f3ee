"""Noisy marginal measurement over binned data via indicator polynomials.

For the gene domain {0,1,2,3} and label domain {0..4}, each indicator is a
Lagrange basis polynomial that is 1 at one domain point and 0 at the rest.
Numerators are exact ring-integer products (binned cells live at integer
scale), accumulated per marginal cell and divided once by the exact divisor
k = 2^v * m: multiply by the modular inverse of the odd part m, then an
exact v-bit truncation. At sigma=0 the counts are bit-for-bit equal to
brute-force counting.

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

# Lagrange divisors: products prod_{j != b} (b - j) over each domain.
GENE_DIVISORS = (6, 2, 2, 6)          # all positive with the factor order used
LABEL_DIVISORS = (24, -6, 4, -6, 24)


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


def _odd_part_scale(acc: ShareVector, divisors: np.ndarray):
    """acc holds divisor*count exactly. Returns acc times the sign and the inverse
    of the divisor's odd part, and the divisor's power-of-two exponent: an exact
    truncation by it finishes the division."""
    div = np.asarray(divisors)
    sign = np.where(div < 0, -1, 1)
    mag = np.abs(div).astype(np.int64)
    v = np.zeros(mag.shape, dtype=np.int64)
    m = mag.copy()
    while np.any(m % 2 == 0):
        even = m % 2 == 0
        m[even] //= 2
        v[even] += 1
    inv = np.array([pow(int(o), -1, 1 << 64) for o in m.ravel()], dtype=object)
    inv = fx.to_u64(inv.reshape(m.shape))
    scaled = acc.scale_by(fx.to_u64(sign.astype(np.int64))).scale_by(inv)
    return scaled, v


def _exact_divide(party: Party, acc: ShareVector, divisors: np.ndarray) -> ShareVector:
    return trunc_shares(party, *_odd_part_scale(acc, divisors))


def _lockstep(party: Party, *programs) -> list:
    """Run product programs side by side and return their results.

    A program is a generator that yields the (x, y) pairs it needs
    multiplied next and receives their products. Each round multiplies the
    pending pairs of every unfinished program in one ``mul_shares_many``, so
    independent programs share rounds: the longest one sets the count.
    """
    results: list = [None] * len(programs)
    pending = {i: next(prog) for i, prog in enumerate(programs)}
    while pending:
        out = mul_shares_many(party, [pair for pairs in pending.values() for pair in pairs])
        for i, pairs in list(pending.items()):
            products, out = out[:len(pairs)], out[len(pairs):]
            try:
                pending[i] = programs[i].send(products)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _gene_numerators(party: Party, x: ShareVector):
    """Program of the stacked numerators (4, ...) of the gene indicators;
    exact 6/2/2/6 multiples, two rounds."""
    s1 = party.add_public(-x, 1)
    s2 = party.add_public(-x, 2)
    s3 = party.add_public(-x, 3)
    s11 = party.add_public(x, fx.neg_const(1))
    s21 = party.add_public(x, fx.neg_const(2))
    u, v = yield [(s2, s3), (x, s11)]
    return stack_shares((yield [(s1, u), (x, u), (v, s3), (v, s21)]))


def _label_numerators(party: Party, y: ShareVector):
    """Program of the stacked numerators (5, ...) of the label indicators
    (prefix/suffix products), three rounds."""
    s = [party.add_public(y, fx.neg_const(j)) if j else y for j in range(5)]
    pre2, suf2 = yield [(s[0], s[1]), (s[3], s[4])]
    pre3, suf1 = yield [(pre2, s[2]), (s[2], suf2)]
    pre4, suf0, l1, l2, l3 = yield [(pre3, s[3]), (s[1], suf1), (s[0], suf1), (pre2, suf2), (pre3, s[4])]
    return stack_shares([suf0, l1, l2, l3, pre4])


def indicator4(party: Party, x: ShareVector) -> ShareVector:
    """The four gene indicator bits, (4, ...): exactly one opens to 1 on the domain."""
    div = np.array(GENE_DIVISORS).reshape((GENE_DOMAIN,) + (1,) * x.a.ndim)
    return _exact_divide(party, _lockstep(party, _gene_numerators(party, x))[0], div)


def indicator5(party: Party, y: ShareVector) -> ShareVector:
    """The five label indicator bits, (5, ...)."""
    div = np.array(LABEL_DIVISORS).reshape((LABEL_DOMAIN,) + (1,) * y.a.ndim)
    return _exact_divide(party, _lockstep(party, _label_numerators(party, y))[0], div)


def marginal_counts(party: Party, matrix: ShareMatrix) -> MarginalSet:
    """Exact secret counts (integer scale) of the measured workload, per fold.

    The label and gene numerators share their product rounds (three).
    Padding rows are masked out of the numerators. The two-way block is one
    matrix product per fold: gene numerators (4d x N) times label numerators
    (N x 5).
    """
    k, n, d = matrix.folds, matrix.n_rows, matrix.n_genes
    mask = matrix.mask                                              # (K, N)
    ln, gn = _lockstep(party, _label_numerators(party, matrix.labels()),
                       _gene_numerators(party, matrix.genes()))
    ln = ln.scale_by(mask)                                          # (5, K, N)
    gn = gn.scale_by(mask[..., None])                               # (4, K, N, d)

    lhs = gn.map(lambda w: np.moveaxis(w, 0, 1).swapaxes(2, 3).reshape(k, GENE_DOMAIN * d, n))
    rhs = ln.map(lambda w: np.moveaxis(w, 0, -1))                   # (K, N, 5)
    acc2 = matmul_shares(party, lhs, rhs)                           # (K, 4d, 5)
    acc2 = acc2.map(lambda w: w.reshape(k, GENE_DOMAIN, d, LABEL_DOMAIN)
                    .transpose(1, 3, 0, 2).reshape(GENE_DOMAIN * LABEL_DOMAIN, k, d))
    cell_divs = np.array([GENE_DIVISORS[r] * LABEL_DIVISORS[f_]
                          for r in range(GENE_DOMAIN) for f_ in range(LABEL_DOMAIN)])
    gene, label, two_way = trunc_shares_many(party, [
        _odd_part_scale(gn.sum(axis=2), np.array(GENE_DIVISORS)[:, None, None]),   # (4, K, d)
        _odd_part_scale(ln.sum(axis=2), np.array(LABEL_DIVISORS)[:, None]),        # (5, K)
        _odd_part_scale(acc2, cell_divs[:, None, None]),                           # (20, K, d)
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
