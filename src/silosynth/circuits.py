"""Multiplicative gates and data-oblivious binary circuits on shares.

Arithmetic multiplication follows the replicated pattern: a gate is one
local cross term and one re-share. Each party writes its cross term into a
fresh buffer, re-randomizes it with an additive zero sharing, sends it to
its predecessor and pairs it with the value received from its successor.
The boolean AND is the same dance in GF(2) on bit-packed words (64 bit
lanes per ring word), which gives the comparison/truncation circuits
word-level SIMD for free. A caller that needs several independent products
in one round concatenates their operands (``concat_shares``) into one gate
and slices the result.

Steps that live in different functions share rounds as programs: a
``*_steps`` generator yields the messages of each round it spends (a
masked replicate term, or the send and receive of an open or a reveal,
``runtime.Message``) and is sent their results. ``Party.run`` drives one
program alone, which is what each gate's plain call does (``program``);
``lockstep`` runs several side by side, each round the union of their
messages, so steps of any gates and lengths share rounds, and it is a
program itself, so locksteps nest. Programs call each other's ``*_steps``
by name, never through a plain call, which runs its rounds on its own.

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

import numpy as np

from .fixedpoint import MASK, to_u64
from .runtime import Party
from .sharing import ShareVector

ALL_ONES = np.uint64(MASK)
ONE = np.uint64(1)


# -- programs -------------------------------------------------------------------

def _labelled(party: Party, label: str, steps):
    with party.protocol(label):
        return (yield from steps)


def lockstep_steps(party: Party, programs, labels):
    """Run protocol programs side by side, as one program; their results, in order.

    A program is a generator that yields the messages of one round (a list
    of ``runtime.Message``) and is sent their results. Each round of the
    lockstep yields the union of its live programs' messages, in program
    order, so steps of any gates and lengths share rounds, and a lockstep
    nests inside another. Each program runs on a label stack of its own:
    the caller's, with its label in ``labels`` (None: none) pushed, swapped
    in whenever it resumes, so a label it holds across a yield is kept, and
    each of its messages counts under it. The schedule depends on the
    programs' code and public shapes only.
    """
    programs = [_labelled(party, label, p) if label else p for p, label in zip(programs, labels)]
    stacks = [list(party.label_stack) for _ in programs]
    results, live = [None] * len(programs), {}

    def resume(i, value):
        outer = party.swap_labels(stacks[i])
        try:
            live[i] = programs[i].send(value)
        except StopIteration as done:
            live.pop(i, None)
            results[i] = done.value
        finally:
            party.swap_labels(outer)

    try:
        for i in range(len(programs)):
            resume(i, None)
        while live:
            sizes = [(i, len(live[i])) for i in sorted(live)]
            replies = yield [m for i, _ in sizes for m in live[i]]
            for i, n in sizes:
                resume(i, replies[:n])
                replies = replies[n:]
    finally:
        for i in live:                      # after an error: unwind each program's own labels
            outer = party.swap_labels(stacks[i])
            try:
                programs[i].close()
            finally:
                party.swap_labels(outer)
    return results


def program(steps, label=None):
    """The plain call of the program ``steps``: it runs alone, under
    ``label`` if given, with no scheduler (``Party.run``)."""
    @functools.wraps(steps)
    def call(party: Party, *args, **kwargs):
        body = steps(party, *args, **kwargs)
        del args, kwargs                    # the program alone holds them, and may free them early
        if label is None:
            return party.run(body)
        with party.protocol(label):
            return party.run(body)
    return call


lockstep = program(lockstep_steps)


# -- re-sharing ---------------------------------------------------------------

def reshare_steps(party: Party, z: np.ndarray) -> ShareVector:
    """Replicate a local additive term after masking it with a zero sharing
    (in place, so ``z`` must be a fresh array). One round."""
    return (yield [party.replicate_message(party.add_zero_sharing(z))])[0]


def reshare_xor_steps(party: Party, z: np.ndarray) -> ShareVector:
    """``reshare_steps`` for XOR sharings of packed words."""
    return (yield [party.replicate_message(party.xor_zero_sharing(z))])[0]


reshare = program(reshare_steps)


# -- arithmetic multiplication ------------------------------------------------

def _cross(x: ShareVector, y: ShareVector, out: np.ndarray):
    """This party's local term of x*y: x_i (y_i + y_(i+1)) + x_(i+1) y_i."""
    np.add(y.a, y.b, out=out)
    out *= x.a
    out += x.b * y.a


def mul_shares_steps(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    """Integer ring product (shapes broadcast); one ring element sent per party."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint64)
    _cross(x, y, out)
    return (yield from reshare_steps(party, out))


mul_shares = program(mul_shares_steps)


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


def and_packed_steps(party: Party, x: ShareVector, y: ShareVector) -> ShareVector:
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint64)
    _cross_and(x, y, out)
    return (yield from reshare_xor_steps(party, out))


and_packed = program(and_packed_steps)


# Sklansky prefix levels: the span w = 2^j, the upper half of every 2w-lane
# block, the top lane of every lower half, and the spread factor 2^w - 1.
_PREFIX_LEVELS = [(1 << j,
                   np.uint64(sum(1 << t for t in range(64) if t >> j & 1)),
                   np.uint64(sum(1 << t for t in range(64) if t % (2 << j) == (1 << j) - 1)),
                   np.uint64((1 << (1 << j)) - 1)) for j in range(6)]


def _carry_prefix_steps(party: Party, a: ShareVector, b: ShareVector) -> ShareVector:
    """Carry word of a + b for XOR-shared words: lane t holds the carry out of lane t.

    Generate G = a b is one AND word and propagate P = a ^ b is local. The
    prefix (Sklansky 1960) has 6 levels of one AND word each: at span w,
    every upper-half lane t of a 2w-lane block takes G_t ^= P_t G_m and
    P_t &= P_m from the top lane m of its lower half. The P products ride in
    the free lower lanes (P_t copied down by w), and G_m and P_m reach their
    halves by a mask and a multiply by 2^w - 1, all local on XOR shares.
    7 rounds and 7 words per element.
    """
    g = yield from and_packed_steps(party, a, b)
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
        prod = yield from and_packed_steps(party, ShareVector(*lhs), ShareVector(*rhs))
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


_carry_prefix = program(_carry_prefix_steps)


def add_components_steps(party: Party, x: ShareVector):
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
    maj = yield from reshare_xor_steps(party, x.a & x.b)
    carry = yield from _carry_prefix_steps(party, x, maj << 1)
    sum_bits = x ^ (maj << 1) ^ (carry << 1)
    return sum_bits, maj, carry


add_components = program(add_components_steps)


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


def b2a_sum_steps(party: Party, lanes: list[ShareVector], weights) -> ShareVector:
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
        out = yield from b2a_sum_steps(party, [lane.reshape(1) for lane in lanes], weights)
        return out.reshape(np.shape(weights[0]))
    u = np.empty((len(lanes),) + lanes[0].shape, dtype=np.uint64)
    thirds = [None] * len(lanes)
    for t, lane in enumerate(lanes):
        u[t], thirds[t] = party.split(lane, xor=True)
    u = party.pair_term((yield from reshare_steps(party, u)))
    shape = np.broadcast_shapes(lanes[0].shape, np.shape(weights[0]))
    out, cw_sum = np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)
    for u_t, c3, w in zip(u, thirds, map(to_u64, weights)):
        cw = c3 * w
        cw_sum += cw
        out += u_t * (w - (cw << ONE))
    return (yield from reshare_steps(party, out)) + party.const_share(cw_sum, 3)


b2a_sum = program(b2a_sum_steps)


def b2a(party: Party, bits: ShareVector) -> ShareVector:
    """XOR-shared 0/1 words to arithmetic 0/1 shares (two rounds)."""
    return b2a_sum(party, [bits], [ONE])


def select_steps(party: Party, bit: ShareVector, x: ShareVector, y: ShareVector) -> ShareVector:
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
    sent = yield from reshare_steps(party, terms)
    u, e = sent[:bit.size].reshape(bit.shape), sent[bit.size:].reshape(shape)
    out = np.empty(shape, dtype=np.uint64)
    _cross(u, e, out)
    out += cd
    return x + (yield from reshare_steps(party, out))


select = program(select_steps)


# -- deterministic truncation -----------------------------------------------------

SIGN_OFFSET = np.uint64(1) << np.uint64(63)


def trunc_shares_steps(party: Party, x: ShareVector, shift) -> ShareVector:
    """Exact arithmetic right shift of the signed secret by ``shift`` >= 1 bits.

    Local per-share logical shifts give the high parts; the two carries that
    cross the cut (carry-save majority and adder generate at position
    shift-1) and the two top-word wraps (same bits at position 63) are
    extracted from the component adder and applied as corrections, so the
    result is exactly floor(signed(x) / 2^shift) with no failure probability.
    The four correction bits are converted as one weighted b2a_sum.
    """
    offset = party.add_public(x, SIGN_OFFSET)
    sh = to_u64(shift)
    _, maj, carry = yield from add_components_steps(party, offset)
    low_pos = sh - ONE
    lanes = [bit_extract(maj, low_pos), bit_extract(carry, low_pos),
             bit_extract(maj, 63), bit_extract(carry, 63)]
    del maj, carry
    neg_wrap = np.negative(ONE << (np.uint64(64) - sh))
    res = offset >> sh
    del offset
    res += yield from b2a_sum_steps(party, lanes, [ONE, ONE, neg_wrap, neg_wrap])
    return party.add_public(res, np.negative(ONE << (np.uint64(63) - sh)))


trunc_shares = program(trunc_shares_steps)
