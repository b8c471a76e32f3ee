"""Multiplicative gates and data-oblivious binary circuits on shares.

Arithmetic multiplication follows the replicated pattern: a gate is one
local cross term and one re-share. Each party writes its cross term into a
fresh buffer, re-randomizes it with an additive zero sharing, sends it to
its predecessor and pairs it with the value received from its successor.
The boolean AND is the same dance in GF(2) on bit-packed words (64 bit
lanes per ring word), which gives the comparison/truncation circuits
word-level SIMD for free. A caller that needs several independent products
in one round concatenates their operands (``concat_shares``) into one gate
and slices the result. Steps that live in different functions share rounds
as ``lockstep`` programs: generators that yield their elementwise gates
(``reshare``, ``primitives.is_negative``, ``trunc_shares``), so that the
same gate of two programs runs as one call on their concatenated operands.

Share splitting: the three additive components of x are each known to
exactly the two parties that replicate them, so XOR (or arithmetic)
sharings of the individual components cost no communication, and a gate on
components forms its cross terms from the pair each party already holds.
Summing the three components inside a carry-save + Sklansky prefix adder
yields the bits of x, plus the exact inter-component carries needed for
deterministic truncation. The same carry prefix compares two XOR-shared
words (``less_than_bits``, the carry out of NOT x + y), which the sort
runs on.

Every XOR-to-arithmetic step is one formula, bit injection (ABY3 §5.4):
with u = c1 ^ c2 at party 1 and c3 at parties 2 and 3 (``Party.split``), a
0/1 bit times d is u (1 - 2 c3) d + c3 d. ``select`` takes a secret d
(the injection of a secret value: x + bit (y - x)), ``b2a_sum`` public
weights (``b2a`` weight 1); both take two rounds.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext

import numpy as np

from .fixedpoint import MASK, to_u64
from .runtime import Party
from .sharing import ShareVector, concat_shares

ALL_ONES = np.uint64(MASK)
ONE = np.uint64(1)


# -- re-sharing ---------------------------------------------------------------

def reshare(party: Party, z: np.ndarray) -> ShareVector:
    """Replicate a local additive term after masking it with a zero sharing
    (in place, so ``z`` must be a fresh array). One round."""
    return party.replicate(party.add_zero_sharing(z))


def reshare_xor(party: Party, z: np.ndarray) -> ShareVector:
    """``reshare`` for XOR sharings of packed words."""
    return party.replicate(party.xor_zero_sharing(z))


# -- lockstep programs ------------------------------------------------------------

def _flat(x, shape):
    """Operand x broadcast to ``shape`` and flattened: a share, or public words."""
    if isinstance(x, ShareVector):
        return ShareVector(np.broadcast_to(x.a, shape).ravel(), np.broadcast_to(x.b, shape).ravel())
    return np.broadcast_to(to_u64(x), shape).ravel()


def _joint(party: Party, gate, requests) -> list:
    """One call of an elementwise ``gate`` on the requests' operands, each
    request's broadcast to its output shape, flattened and concatenated in
    request order; the output split back into those shapes."""
    if len(requests) == 1:
        return [gate(party, *requests[0])]
    shapes = [np.broadcast_shapes(*(np.shape(x.a if isinstance(x, ShareVector) else x) for x in args))
              for args in requests]
    columns = [[_flat(x, shape) for x, shape in zip(operands, shapes)] for operands in zip(*requests)]
    out = gate(party, *(concat_shares(c) if isinstance(c[0], ShareVector) else np.concatenate(c)
                        for c in columns))
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    return [out[end - int(np.prod(shape)):end].reshape(shape) for shape, end in zip(shapes, ends)]


def lockstep(party: Party, programs, labels) -> list:
    """Run protocol programs side by side; their results, in order.

    A program is a generator that yields requests (gate, *operands) for an
    elementwise gate and is sent the gate's output. Each step serves the
    first unfinished program's request, joined by every other program's
    request for the same gate as one ``_joint`` call, so they share its
    rounds; a program whose request differs waits. The schedule depends on
    the programs' code and public shapes only. Each program runs, and a
    request that no other joins, under its label in ``labels`` (None: the
    caller's); joined calls run under the caller's label.
    """
    results, waiting = [None] * len(programs), {}

    def scope(label):
        return party.protocol(label) if label else nullcontext()

    def resume(i, value):
        with scope(labels[i]):
            try:
                waiting[i] = programs[i].send(value)
            except StopIteration as done:
                waiting.pop(i, None)
                results[i] = done.value

    for i in range(len(programs)):
        resume(i, None)
    while waiting:
        gate = waiting[min(waiting)][0]
        joined = [i for i in sorted(waiting) if waiting[i][0] is gate]
        with scope(labels[joined[0]] if len(joined) == 1 else None):
            outs = _joint(party, gate, [waiting[i][1:] for i in joined])
        for i, out in zip(joined, outs):
            resume(i, out)
    return results


def program(steps, label=None):
    """The plain call of the program ``steps``: it runs alone, under
    ``label`` if given. ``.steps`` keeps the generator for ``yield from``."""
    @functools.wraps(steps)
    def call(party: Party, *args):
        return lockstep(party, [steps(party, *args)], [label])[0]
    call.steps = steps
    return call


# -- arithmetic multiplication ------------------------------------------------

def _cross(x: ShareVector, y: ShareVector, out: np.ndarray):
    """This party's local term of x*y: x_i (y_i + y_(i+1)) + x_(i+1) y_i."""
    np.add(y.a, y.b, out=out)
    out *= x.a
    out += x.b * y.a


def mul_shares(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Integer ring product (shapes broadcast); one ring element sent per party."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint64)
    _cross(x, y, out)
    return reshare(party, out)


def matmul_term(x: ShareVector, y: ShareVector) -> np.ndarray:
    """This party's local term of the matrix product x @ y, batched over leading axes."""
    return x.a @ (y.a + y.b) + x.b @ y.a


def matmul_shares(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Secure matrix product, batched over leading axes: local cross matmuls plus one round."""
    return reshare(party, matmul_term(x, y))


# -- boolean layer -------------------------------------------------------------

def not_packed(party: Party, x: ShareVector) -> ShareVector:
    return x ^ party.const_share(ALL_ONES)


def _cross_and(x: ShareVector, y: ShareVector, out: np.ndarray):
    np.bitwise_xor(y.a, y.b, out=out)
    out &= x.a
    out ^= x.b & y.a


def and_packed(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint64)
    _cross_and(x, y, out)
    return reshare_xor(party, out)


# Sklansky prefix levels: the span w = 2^j, the upper half of every 2w-lane
# block, the top lane of every lower half, and the spread factor 2^w - 1.
_PREFIX_LEVELS = [(1 << j,
                   np.uint64(sum(1 << t for t in range(64) if t >> j & 1)),
                   np.uint64(sum(1 << t for t in range(64) if t % (2 << j) == (1 << j) - 1)),
                   np.uint64((1 << (1 << j)) - 1)) for j in range(6)]


def _carry_prefix(party: Party, a: ShareVector, b: ShareVector) -> ShareVector:
    """Carry word of a + b for XOR-shared words: lane t holds the carry out of lane t.

    Generate G = a b is one AND word and propagate P = a ^ b is local. The
    prefix (Sklansky 1960) has 6 levels of one AND word each: at span w,
    every upper-half lane t of a 2w-lane block takes G_t ^= P_t G_m and
    P_t &= P_m from the top lane m of its lower half. The P products ride in
    the free lower lanes (P_t copied down by w), and G_m and P_m reach their
    halves by a mask and a multiply by 2^w - 1, all local on XOR shares.
    7 rounds and 7 words per element.
    """
    g = and_packed(party, a, b)
    # G and P hold both components on a leading axis; each level runs in
    # place on them and on three scratch arrays
    big_g = np.stack((g.a, g.b))
    del g
    big_p = np.stack((a.a, a.b))
    big_p[0] ^= b.a
    big_p[1] ^= b.b
    del a, b                    # frees a caller's temporary (NOT x, maj << 1) before the levels
    lhs, rhs, tmp = (np.empty_like(big_p) for _ in range(3))
    for w, upper, top, spread in _PREFIX_LEVELS:
        last = w == 32                                  # needs no P products
        np.bitwise_and(big_p, upper, out=lhs)           # P_t on the upper lanes,
        np.bitwise_and(big_g, top, out=rhs)             # G_m one lane above the top,
        rhs <<= 1
        if not last:
            np.right_shift(lhs, w, out=tmp)             # P_t copied w lanes down,
            lhs |= tmp
            np.bitwise_and(big_p, top, out=tmp)         # P_m at the base of the block,
            tmp >>= w - 1
            rhs |= tmp
        rhs *= spread                                   # each spread over its half
        prod = and_packed(party, ShareVector(*lhs), ShareVector(*rhs))
        for k, r in enumerate((prod.a, prod.b)):
            np.bitwise_and(r, upper, out=tmp[k])
        big_g ^= tmp
        if not last:
            for k, r in enumerate((prod.a, prod.b)):
                np.left_shift(r, w, out=tmp[k])
            tmp &= upper
            big_p &= ~upper
            big_p |= tmp
    return ShareVector(*big_g)


def add_components(party: Party, x: ShareVector):
    """Bits and carries of x1 + x2 + x3 via carry-save + a Sklansky prefix adder.

    Returns (sum_bits, maj, carry) packed words where ``sum_bits`` holds the
    bits of x mod 2^64, ``maj`` the carry-save majority word (pre-shift) and
    ``carry`` the prefix generate word of the final two-term addition.
    Bit t of maj plus bit t of carry is the exact number of carries crossing
    from position t to t+1.

    Read as an XOR sharing, x's own pair (x_i, x_(i+1)) shares x1 ^ x2 ^ x3,
    the carry-save sum. The majority x1 x2 ^ x2 x3 ^ x3 x1 is one AND gate
    whose cross term at party i is x_i & x_(i+1), which it holds. The sum
    and the shifted majority then meet in ``_carry_prefix``: 8 rounds and
    8 words per element.
    """
    maj = reshare_xor(party, x.a & x.b)
    carry = _carry_prefix(party, x, maj << 1)
    sum_bits = x ^ (maj << 1) ^ (carry << 1)
    return sum_bits, maj, carry


def less_than_bits(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """XOR-shared 0/1 word: 1 iff x < y as unsigned 64-bit words, for XOR sharings x and y.

    NOT x + y = 2^64 + (y - x - 1) carries out of lane 63 exactly when
    y > x, so the comparator is the adder's carry prefix on NOT x and y
    (a carry-lookahead, as in Garay, Schoenmakers & Villegas, PKC 2007).
    7 rounds and 7 words per element; any two words compare correctly, as
    the sign of x - y cannot once |x - y| reaches 2^63.
    """
    return bit_extract(_carry_prefix(party, not_packed(party, x), y), 63)


# -- bit/arithmetic conversion --------------------------------------------------

def bit_extract(x: ShareVector, position) -> ShareVector:
    """0/1 word per lane holding the packed bit at ``position`` (int or array)."""
    pos = to_u64(position)
    one = np.uint64(1)
    return ShareVector((x.a >> pos) & one, (x.b >> pos) & one)


@program
def b2a_sum(party: Party, lanes: list[ShareVector], weights) -> ShareVector:
    """Arithmetic sum of ``weights[t] * lanes[t]`` for XOR-shared 0/1 lanes of one shape.

    Bit injection of public weights (lane components 0/1, as bit_extract
    makes them): e = (1 - 2 c3) w is public to parties 2 and 3. Round 1
    re-shares each lane's u; round 2 the summed u e terms, from u's additive
    term of parties 2 and 3 (``pair_term``), and the sum of c3 w, which both
    hold, becomes the result's third component: L words per lane element and
    one per output element, whose shape broadcasts the lanes' with a
    weight's. Temporaries stay one lane wide. 0-d lanes run as 1-d ones, so
    the ring arithmetic stays on arrays, where numpy wraps without a warning.
    """
    if not lanes[0].shape:
        out = yield from b2a_sum.steps(party, [lane.reshape(1) for lane in lanes], weights)
        return out.reshape(np.shape(weights[0]))
    u = np.empty((len(lanes),) + lanes[0].shape, dtype=np.uint64)
    thirds = [None] * len(lanes)
    for t, lane in enumerate(lanes):
        u[t], thirds[t] = party.split(lane, xor=True)
    u = party.pair_term((yield reshare, u))
    shape = np.broadcast_shapes(lanes[0].shape, np.shape(weights[0]))
    out, cw_sum = np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)
    for u_t, c3, w in zip(u, thirds, map(to_u64, weights)):
        cw = c3 * w
        cw_sum += cw
        out += u_t * (w - (cw << ONE))
    return (yield reshare, out) + party.const_share(cw_sum, 3)


def b2a(party: Party, bits: ShareVector) -> ShareVector:
    """XOR-shared 0/1 words to arithmetic 0/1 shares (two rounds)."""
    return b2a_sum(party, [bits], [ONE])


@program
def select(party: Party, bit: ShareVector, x: ShareVector, y: ShareVector) -> ShareVector:
    """y where the XOR-shared 0/1 bit is 1, x elsewhere (shapes broadcast):
    x plus the bit injected into d = y - x, in two rounds.

    Bit injection of a secret d: e = (1 - 2 c3) d is local to parties 2 and
    3, from d's additive term of those two parties (``pair_term``, the split
    ``b2a_sum`` uses for u). Round 1 re-shares u together with e; round 2 is
    the product u e, with the c3 d terms added into its re-share. Sends
    |bit| + 2 |out| words per party.
    """
    d = y - x
    shape = np.broadcast_shapes(bit.shape, d.shape)
    terms = np.empty(bit.size + int(np.prod(shape)), dtype=np.uint64)
    u_term, e_term = terms[:bit.size].reshape(bit.shape), terms[bit.size:].reshape(shape)
    u_term[...], c3 = party.split(bit, xor=True)
    part = party.pair_term(d)
    cd = c3 * part
    np.subtract(part, cd << ONE, out=e_term)
    sent = yield reshare, terms
    u, e = sent[:bit.size].reshape(bit.shape), sent[bit.size:].reshape(shape)
    out = np.empty(shape, dtype=np.uint64)
    _cross(u, e, out)
    out += cd
    return x + (yield reshare, out)


# -- deterministic truncation -----------------------------------------------------

SIGN_OFFSET = np.uint64(1) << np.uint64(63)


def trunc_shares(party: Party, x: ShareVector, shift) -> ShareVector:
    """Exact arithmetic right shift of the signed secret by ``shift`` bits.

    Local per-share logical shifts give the high parts; the two carries that
    cross the cut (carry-save majority and adder generate at position
    shift-1) and the two top-word wraps (same bits at position 63) are
    extracted from the component adder and applied as corrections, so the
    result is exactly floor(signed(x) / 2^shift) with no failure probability.
    The four correction bits are converted as one weighted b2a_sum.
    """
    shift_arr = np.asarray(shift)
    if shift_arr.ndim == 0 and int(shift_arr) == 0:
        return x.copy()
    offset = party.add_public(x, SIGN_OFFSET)
    sh = to_u64(shift_arr)
    _, maj, carry = add_components(party, offset)
    low_pos = sh - ONE
    lanes = [bit_extract(maj, low_pos), bit_extract(carry, low_pos),
             bit_extract(maj, 63), bit_extract(carry, 63)]
    del maj, carry
    neg_wrap = np.negative(ONE << (np.uint64(64) - sh))
    res = offset >> sh
    del offset
    res += b2a_sum(party, lanes, [ONE, ONE, neg_wrap, neg_wrap])
    return party.add_public(res, np.negative(ONE << (np.uint64(63) - sh)))
