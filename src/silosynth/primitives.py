"""Secure building blocks on replicated shares.

All primitives are data-oblivious: message counts, sizes and order depend
only on public shapes, never on secret values. Comparison rides on the
component adder from circuits.py; comparison and equality return
XOR-shared bits: ``circuits.select``, the injection of a secret value,
takes such a bit directly (two rounds), and a caller that needs the bit as
an arithmetic value converts it with ``b2a``.
The one reciprocal is computed in the clear: a division by a public count
applies it locally, and one by a secret count in [0, n] looks it up in a
public table of the n + 1 counts with the count's one-hot. Sorting runs one
merge-exchange network per batch over its own rows, zipped layer by layer,
less the compare-swaps no read output depends on; it converts the values to
XOR-shared bits once, compares them with the log-depth comparator of
circuits.py and swaps with one AND, and converts back only what is read.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .circuits import (
    ALL_ONES,
    ONE,
    SIGN_OFFSET,
    add_components,
    add_components_steps,
    and_packed,
    and_packed_steps,
    b2a_sum,
    b2a_sum_steps,
    bit_extract,
    less_than_bits,
    mul_shares_steps,
    not_packed,
    program,
    reshare_xor_steps,
    trunc_shares_steps,
)
from .runtime import Party
from .sharing import ShareVector, concat_shares, stack_shares

# Newton-Raphson reciprocal: linear initial guess on [0.5, 1), iteration count
RECIP_INIT = 2.9142
NR_ITERATIONS = 5


def is_negative_steps(party: Party, x: ShareVector) -> ShareVector:
    """XOR-shared secret bit: 1 iff x < 0 under the signed interpretation."""
    sum_bits, _, _ = yield from add_components_steps(party, x)
    return bit_extract(sum_bits, 63)


def lt_steps(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """XOR-shared secret bit: 1 iff x < y under the signed interpretation (strict)."""
    return (yield from is_negative_steps(party, x - y))


lt = program(lt_steps)


def eq_zero_steps(party: Party, x: ShareVector) -> ShareVector:
    """XOR-shared secret bit: 1 iff x == 0.

    x == 0 iff a = x1 + x2 equals b = -x3. Party 1 holds a and re-shares it
    as an XOR sharing (one round); parties 2 and 3 both hold b and place it
    as the third component. The 64 lanes of NOT(a ^ b) are then AND-reduced
    in 6 rounds: 7 rounds and 7 words per element.
    """
    lead, third = party.split(x)
    a = yield from reshare_xor_steps(party, lead if lead.flags.writeable else lead.copy())   # copies only a zero view
    t = not_packed(party, a ^ party.const_share(np.negative(third), 3))
    for k in (32, 16, 8, 4, 2, 1):
        t = yield from and_packed_steps(party, t, t >> k)
    return bit_extract(t, 0)


eq_zero = program(eq_zero_steps)


def and_all_steps(party: Party, words: ShareVector) -> ShareVector:
    """XOR-shared words: their lane-wise AND over the last axis, in ceil(log2 W) rounds."""
    while words.shape[-1] > 1:
        half = words.shape[-1] // 2
        prod = yield from and_packed_steps(party, words[..., :half], words[..., half:2 * half])
        words = concat_shares([prod, words[..., 2 * half:]], axis=-1)
    return words[..., 0]


def select_max_steps(party: Party, z: ShareVector, values) -> ShareVector:
    """The public values[m], secret-shared over z's leading shape, at the
    lowest index m of z's last axis that attains its maximum.

    All pairs at once (CrypTen's pairwise method): one ``is_negative`` of
    z_c - z_m over the W(W-1)/2 pairs c < m (8 rounds). Entry m is the
    lowest-index maximum iff onehot_m = prod_{c<m} [z_c < z_m] * prod_{c>m}
    NOT [z_m < z_c], an AND tree of ceil(log2(W-1)) levels. One ``b2a_sum``
    reads values with the one-hot, a lane per entry (2 rounds): 12 rounds
    for W = 5, none for W = 1.
    """
    w = z.shape[-1]
    if w == 1:
        return party.const_share(np.full(z.shape[:-1], values[0], dtype=np.uint64))
    lo, hi = np.triu_indices(w, 1)
    less = yield from is_negative_steps(party, z[..., lo] - z[..., hi])     # [z_lo < z_hi] per pair
    # factor (m, c) for each c != m: the pair's bit, negated when c > m
    pair = np.zeros((w, w), dtype=np.int64)
    pair[lo, hi] = pair[hi, lo] = np.arange(lo.size)
    others = np.array([[c for c in range(w) if c != m] for m in range(w)])
    later = others > np.arange(w)[:, None]
    factors = less[..., pair[np.arange(w)[:, None], others]] ^ party.const_share(later.astype(np.uint64))
    onehot = bit_extract((yield from and_all_steps(party, factors)), 0)
    return (yield from b2a_sum_steps(party, [onehot[..., m] for m in range(w)], values))


select_max = program(select_max_steps)


def mul_fx_steps(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Fixed-point product: integer multiply then exact truncation."""
    product = yield from mul_shares_steps(party, x, y)
    return (yield from trunc_shares_steps(party, product, party.fp.frac_bits))


mul_fx = program(mul_fx_steps)


def public_reciprocal(b: np.ndarray, f: int) -> np.ndarray:
    """1/b at scale f for public words 0 < b < 2^(2f), in the clear: b scaled
    into [0.5, 1) by a power of two, NR_ITERATIONS steps x <- x (2 - b x) from
    RECIP_INIT - 2 b, the power of two applied again, each product truncated."""
    top = np.array([int(v).bit_length() - 1 for v in b.ravel()], dtype=np.uint64).reshape(b.shape)
    factor = ONE << (np.uint64(2 * f - 1) - top)
    b_norm = fx.truncate(b * factor, f)
    two = np.uint64(fx.encode_scalar(2.0, f))
    x = np.uint64(fx.encode_scalar(RECIP_INIT, f)) - b_norm - b_norm
    for _ in range(NR_ITERATIONS):
        x = fx.truncate(x * (two - fx.truncate(b_norm * x, f)), f)
    return fx.truncate(x * factor, f)


def reciprocal_fx_steps(party: Party, count: ShareVector, n: int) -> ShareVector:
    """Row ``count``, shape (2,) + count.shape, of the public table over
    j in [0, n] of [j = 0] and the ``public_reciprocal`` of max(j, 1) 2^f, for
    secret integers 0 <= count <= n: the count's bits (8 rounds); its one-hot
    over [0, n], 64 lanes a word, the AND (ceil(log2 l) rounds) of a pattern
    per bit i < l = bit_length(n) whose lane j holds the bit if bit i of j is
    set and its negation if not (local); one ``b2a_sum`` of the table's rows
    (2 rounds), which sends n + 1 words per count."""
    f = party.fp.frac_bits
    ell = max(n.bit_length(), 1)
    bits = bit_extract((yield from add_components_steps(party, count))[0][..., None, None], np.arange(ell))
    lane_bits = np.arange(64 * (n // 64 + 1), dtype=np.uint64) >> np.arange(ell, dtype=np.uint64)[:, None] & ONE
    set_lanes = np.packbits(lane_bits.astype(np.uint8), axis=1, bitorder="little").view("<u8").T   # (words, l)
    onehot = yield from and_all_steps(party, -bits ^ party.const_share(ALL_ONES ^ set_lanes))
    onehot = bit_extract(onehot[..., None], np.arange(64)).reshape(*count.shape, -1)
    j = np.arange(n + 1, dtype=np.uint64).reshape(-1, *[1] * len(count.shape))    # lane j's row
    table = np.stack([j == 0, public_reciprocal(np.maximum(j, ONE) << np.uint64(f), f)], axis=1)
    return (yield from b2a_sum_steps(party, [onehot[..., k] for k in range(n + 1)], table))


reciprocal_fx = program(reciprocal_fx_steps)


def div_fx_steps(party: Party, a: ShareVector, count: ShareVector, n: int, fallback: ShareVector) -> ShareVector:
    """Fixed-point a / (max(count, 1) 2^f) for secret integers 0 <= count <= n,
    plus ``fallback`` where count is 0 (a must be 0 there): q = a r, the
    residual a - q denom, denom = count 2^f, and the correction residual r,
    each truncated by f. Where count is 0, a and so q are 0, so the residual
    is 0 whatever denom is. empty * fallback rides in q's gate."""
    f = party.fp.frac_bits
    empty, r = yield from reciprocal_fx_steps(party, count, n)
    denom = count.scale_by(ONE << np.uint64(f))
    prod = yield from mul_shares_steps(party, stack_shares([a, empty]), stack_shares([r, fallback]))
    q = yield from trunc_shares_steps(party, prod[0], f)
    residual = a - (yield from mul_fx_steps(party, q, denom))
    return q + (yield from mul_fx_steps(party, residual, r)) + prod[1]


div_fx = program(div_fx_steps)


def div_public_steps(party: Party, x: ShareVector, d) -> ShareVector:
    """Fixed-point x/d of secret integers x by public integers d (shapes
    broadcast), for 0 <= x <= d < 2^f: word for word what ``div_fx`` returns
    for x 2^f over d 2^f, in one truncation (10 rounds).

    With r = ``public_reciprocal`` of d 2^f, div_fx's quotient x r and residual
    x 2^f - x r d are local and exact (multiples of 2^f below 2^(3f) <= 2^60).
    """
    f = party.fp.frac_bits
    r = public_reciprocal(fx.to_u64(d) << np.uint64(f), f)
    q = x.scale_by(r)
    residual = x.scale_by(ONE << np.uint64(f)) - q.scale_by(d)
    return q + (yield from trunc_shares_steps(party, residual.scale_by(r), f))


# -- oblivious sorting ---------------------------------------------------------

def _merge_exchange(n: int):
    """Batcher's merge exchange (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M) for
    n keys: the compare-swap pairs (p, q), p < q, of each of its
    ceil(lg n)(ceil(lg n) + 1)/2 layers; after each pair arr[p] <= arr[q]."""
    t = max(n - 1, 0).bit_length()
    i = np.arange(n)
    layers = []
    for k in reversed(range(t)):
        p = 1 << k
        # the pass with q = 2^(t-1) compares i with i + p where bit k of i is
        # clear; each later pass halves q and compares at distance 2q - p
        # where bit k is set
        for d, r in [(p, 0)] + [((2 << j) - p, p) for j in reversed(range(k, t - 1))]:
            lo = i[:n - d][(i[:n - d] & p) == r]
            layers.append((lo, lo + d))
    return layers


def _sort_plan(rows: np.ndarray, read: np.ndarray):
    """The public schedule of ``sort_columns`` on B batches of n stored rows.

    Batch b runs its own network over its first rows[b] stored rows, and the
    layers of all networks are zipped, so a shorter one finishes early. A
    walk back from the positions ``read`` (B, n) marks keeps only the
    compare-swaps those positions depend on; with every data position read,
    that is all of them. Returns the stored rows (p, q) of each layer's
    secret compare-swaps.
    """
    n = read.shape[1]
    nets = {r: _merge_exchange(r) for r in set(rows.tolist())}
    plan = [tuple(np.concatenate([nets[r][t][j] + b * n for b, r in enumerate(rows) if t < len(nets[r])])
                  for j in (0, 1))
            for t in range(max(map(len, nets.values()), default=0))]
    need = read.ravel().copy()
    for t in reversed(range(len(plan))):
        p, q = plan[t]
        keep = need[p] | need[q]
        need[p[keep]] = need[q[keep]] = True
        plan[t] = (p[keep], q[keep])
    return [pq for pq in plan if pq[0].size]


def sort_columns(party: Party, matrix: ShareVector, rows, read) -> ShareVector:
    """Sort each column of (..., N, d) shares along axis -2 in one batched schedule.

    ``rows`` (shaped like the leading axes) counts the data rows of each
    batch; the first rows[k] outputs of batch k are its sorted data.
    ``read`` (..., N) is a public mask of the outputs the caller reads: only
    those are sorted values; every other output is its input.

    The sort runs on XOR-shared bits: every position the public plan
    (``_sort_plan``) touches is converted once (``add_components``, 8 rounds
    for all batches), with bit 63 flipped so that unsigned order is signed
    order. Each layer is one gather of all batches' secret pairs, one
    ``less_than_bits`` (7 rounds) and one AND of its bit, spread over the
    lanes, with xp ^ xq (1 round): 8 rounds and 8 words per compare-swap.
    The touched read positions come back in one 64-lane ``b2a_sum``
    (2 rounds, 65 words each). The rounds are those of the deepest batch's
    network, the bytes those of separate sorts.
    """
    lead, (n, d) = matrix.shape[:-2], matrix.shape[-2:]
    rows = np.broadcast_to(rows, lead).ravel()
    read = np.broadcast_to(read, lead + (n,))
    plan = _sort_plan(rows, read.reshape(rows.size, n))
    arr = matrix.reshape(-1, d).copy()
    hit = np.zeros(arr.shape[0], dtype=bool)
    for p, q in plan:
        hit[p] = hit[q] = True
    touched, slot = np.flatnonzero(hit), np.cumsum(hit) - 1     # slot: row -> index in touched
    bits = add_components(party, arr[touched])[0] ^ party.const_share(SIGN_OFFSET)
    for p, q in plan:
        p, q = slot[p], slot[q]
        xp, xq = bits[p], bits[q]
        # a 0/1 bit negated is 0 or all ones in every component, so the
        # negation spreads the secret bit over the lanes (local)
        swap = and_packed(party, -less_than_bits(party, xq, xp), xp ^ xq)
        bits[p] = xp ^ swap
        bits[q] = xq ^ swap
    back = read.ravel()[touched]
    bits = bits[back]
    # the flipped bits read x + 2^63, so adding 2^63 again gives x
    arr[touched[back]] = party.add_public(b2a_sum(party, [bit_extract(bits, t) for t in range(64)],
                                                  [ONE << np.uint64(t) for t in range(64)]), SIGN_OFFSET)
    return arr.reshape(*matrix.shape)


# -- shared randomness -----------------------------------------------------------

GAUSS_BOUND = 6  # gauss01 sums 12 uniforms on [0, 1) and subtracts their mean: |sample| <= 6


def gauss01_steps(party: Party, n: int, folds: int) -> ShareVector:
    """(folds, n) standard normal samples by the 12-uniform sum approximation.

    Each uniform lies on the 2^-f grid of [0, 1): the three pairwise streams
    contribute f random bits per sample, and the XOR of the three is
    converted to an arithmetic sharing bit by bit. The uniforms are drawn
    fold-major, (folds, 12, n), so one call consumes the shared random
    stream exactly as ``folds`` calls of n samples would.
    """
    f = party.fp.frac_bits
    words = party.shared_random_words((folds * 12 * n,))
    u = yield from b2a_sum_steps(party, [bit_extract(words, t) for t in range(f)],
                                 [np.uint64(1) << np.uint64(t) for t in range(f)])
    return party.add_public(u.reshape(folds, 12, n).sum(axis=1), fx.neg_const(GAUSS_BOUND << f))


gauss01 = program(gauss01_steps)
