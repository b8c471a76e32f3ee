"""Multiplicative gates and data-oblivious binary circuits on shares.

Arithmetic multiplication follows the replicated pattern: each party forms
its local cross terms, re-randomizes with an additive zero sharing, sends
the result to its predecessor and pairs it with the value received from its
successor. The boolean AND is the same dance in GF(2) on bit-packed words
(64 bit lanes per ring word), which gives the comparison/truncation circuits
word-level SIMD for free.

Share splitting: the three additive components of x are each known to
exactly the two parties that replicate them, so XOR (or arithmetic)
sharings of the individual components cost no communication. Summing the
three components inside a carry-save + Kogge-Stone adder yields the bits of
x, plus the exact inter-component carries needed for deterministic
truncation.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import MASK, to_u64
from .runtime import Party
from .sharing import ShareVector

ALL_ONES = np.uint64(MASK)


# -- batching -------------------------------------------------------------------

def flatten(parts: list[ShareVector]) -> ShareVector:
    """Concatenate sharings of any shapes into one flat sharing."""
    return ShareVector(np.concatenate([p.a.ravel() for p in parts]),
                       np.concatenate([p.b.ravel() for p in parts]))


def unflatten(flat: ShareVector, like: list) -> list[ShareVector]:
    """Split a flat sharing back into pieces shaped like ``like``."""
    out, off = [], 0
    for x in like:
        n = x.size
        out.append(ShareVector(flat.a[off:off + n].reshape(x.shape), flat.b[off:off + n].reshape(x.shape)))
        off += n
    return out


# -- arithmetic multiplication ------------------------------------------------

def mul_shares(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Integer ring product; one ring element sent per party."""
    cross = x.a * y.a + x.a * y.b + x.b * y.a
    z = cross + party.zero_add(cross.shape)
    party.send_words(party.prev_pid, z)
    nxt = party.recv_words(party.next_pid).reshape(z.shape)
    return ShareVector(z, nxt)


def mul_shares_many(party: Party, pairs) -> list[ShareVector]:
    """Batch independent products into one message per party."""
    crosses = [p[0].a * p[1].a + p[0].a * p[1].b + p[0].b * p[1].a for p in pairs]
    flat_cross = np.concatenate([c.ravel() for c in crosses])
    z = flat_cross + party.zero_add(flat_cross.shape)
    party.send_words(party.prev_pid, z)
    nxt = party.recv_words(party.next_pid)
    return unflatten(ShareVector(z, nxt), crosses)


def matmul_shares(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Secure matrix product: local cross matmuls plus one resharing round."""
    z = x.a @ y.a + x.a @ y.b + x.b @ y.a + party.zero_add((x.shape[0], y.shape[1]))
    party.send_words(party.prev_pid, z)
    nxt = party.recv_words(party.next_pid).reshape(z.shape)
    return ShareVector(z, nxt)


# -- boolean layer -------------------------------------------------------------

def xor_packed(x: ShareVector, y: ShareVector) -> ShareVector:
    return ShareVector(x.a ^ y.a, x.b ^ y.b)


def not_packed(party: Party, x: ShareVector) -> ShareVector:
    if party.pid == 1:
        return ShareVector(x.a ^ ALL_ONES, x.b)
    if party.pid == 3:
        return ShareVector(x.a, x.b ^ ALL_ONES)
    return ShareVector(x.a.copy(), x.b.copy())


def shift_packed(x: ShareVector, k: int) -> ShareVector:
    """Logical shift of every packed lane; positive k shifts left."""
    if k >= 0:
        return ShareVector(x.a << k, x.b << k)
    return ShareVector(x.a >> -k, x.b >> -k)


def and_packed(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    cross = (x.a & y.a) ^ (x.a & y.b) ^ (x.b & y.a)
    z = cross ^ party.zero_xor(cross.shape)
    party.send_words(party.prev_pid, z)
    nxt = party.recv_words(party.next_pid).reshape(z.shape)
    return ShareVector(z, nxt)


def and_packed_many(party: Party, pairs) -> list[ShareVector]:
    """Batch several same-round ANDs into one message per party."""
    xs = [p[0] for p in pairs]
    return unflatten(and_packed(party, flatten(xs), flatten([p[1] for p in pairs])), xs)


def or_packed(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    return xor_packed(xor_packed(x, y), and_packed(party, x, y))


def split_components(party: Party, x: ShareVector) -> list[ShareVector]:
    """Zero-cost sharings of the three additive components of x.

    Works for both XOR and arithmetic semantics: component i is placed in
    slot i, which is exactly the slot replicated by the two parties that
    already know it.
    """
    zeros = np.zeros(x.shape, dtype=np.uint64)
    out = []
    for slot in (1, 2, 3):
        if slot == party.pid:
            out.append(party.component_share(x.a, slot))
        elif slot == party.next_pid:
            out.append(party.component_share(x.b, slot))
        else:
            out.append(party.component_share(zeros, slot))
    return out


def add_components(party: Party, x: ShareVector):
    """Bits and carries of x1 + x2 + x3 via carry-save + Kogge-Stone.

    Returns (sum_bits, maj, carry) packed words where ``sum_bits`` holds the
    bits of x mod 2^64, ``maj`` the carry-save majority word (pre-shift) and
    ``carry`` the Kogge-Stone generate word of the final two-term addition.
    Bit t of maj plus bit t of carry is the exact number of carries crossing
    from position t to t+1.
    """
    x1, x2, x3 = split_components(party, x)
    s = xor_packed(xor_packed(x1, x2), x3)
    a12, a13, a23 = and_packed_many(party, [(x1, x2), (x1, x3), (x2, x3)])
    maj = xor_packed(xor_packed(a12, a13), a23)
    cw = shift_packed(maj, 1)

    g = and_packed(party, s, cw)
    p = xor_packed(s, cw)
    big_g, big_p = g, p
    for k in (1, 2, 4, 8, 16, 32):
        gs = shift_packed(big_g, k)
        ps = shift_packed(big_p, k)
        if k < 32:
            t1, t2 = and_packed_many(party, [(big_p, gs), (big_p, ps)])
            big_g = xor_packed(big_g, t1)
            big_p = t2
        else:
            t1 = and_packed(party, big_p, gs)
            big_g = xor_packed(big_g, t1)
    sum_bits = xor_packed(p, shift_packed(big_g, 1))
    return sum_bits, maj, big_g


# -- bit/arithmetic conversion --------------------------------------------------

def bit_extract(x: ShareVector, position) -> ShareVector:
    """0/1 word per lane holding the packed bit at ``position`` (int or array)."""
    pos = to_u64(position)
    one = np.uint64(1)
    return ShareVector((x.a >> pos) & one, (x.b >> pos) & one)


def b2a(party: Party, bits: ShareVector) -> ShareVector:
    """XOR-shared 0/1 words to arithmetic 0/1 shares (two multiplications).

    Components must already be 0/1 valued, as bit_extract produces.
    """
    z1, z2, z3 = split_components(party, bits)
    u = z1 + z2 - mul_shares(party, z1, z2).scale_by(2)
    return u + z3 - mul_shares(party, u, z3).scale_by(2)


def b2a_many(party: Party, bit_words: list[ShareVector]) -> list[ShareVector]:
    return unflatten(b2a(party, flatten(bit_words)), bit_words)


# -- deterministic truncation -----------------------------------------------------

SIGN_OFFSET = np.uint64(1) << np.uint64(63)


def trunc_shares(party: Party, x: ShareVector, shift) -> ShareVector:
    """Exact arithmetic right shift of the signed secret by ``shift`` bits.

    Local per-share logical shifts give the high parts; the two carries that
    cross the cut (carry-save majority and adder generate at position
    shift-1) and the two top-word wraps (same bits at position 63) are
    extracted from the component adder and applied as corrections, so the
    result is exactly floor(signed(x) / 2^shift) with no failure probability.
    """
    shift_arr = np.asarray(shift)
    if shift_arr.ndim == 0 and int(shift_arr) == 0:
        return x.copy()
    offset = party.add_public(x, SIGN_OFFSET)
    _, maj, carry = add_components(party, offset)
    sh = to_u64(shift_arr)
    local = ShareVector(offset.a >> sh, offset.b >> sh)
    low_pos = sh - np.uint64(1)
    d1, d2, c1, c2 = b2a_many(party, [
        bit_extract(maj, low_pos), bit_extract(carry, low_pos),
        bit_extract(maj, 63), bit_extract(carry, 63),
    ])
    wrap = np.uint64(1) << (np.uint64(64) - sh)
    res = local + d1 + d2 - (c1 + c2).scale_by(wrap)
    unoffset = (np.uint64(1) << (np.uint64(63) - sh)) * np.ones(x.shape, dtype=np.uint64)
    return party.add_public(res, np.uint64(0) - unoffset)


def trunc_shares_many(party: Party, pairs) -> list[ShareVector]:
    """Truncate several (sharing, shift) pairs in one trunc_shares schedule."""
    xs = [x for x, _ in pairs]
    shifts = np.concatenate([np.full(x.size, shift, dtype=np.uint64) for x, shift in pairs])
    return unflatten(trunc_shares(party, flatten(xs), shifts), xs)
