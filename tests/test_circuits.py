"""Gate and adder layer: exercised through three in-process parties."""

import numpy as np
from conftest import reconstruct, reconstruct_xor, share_values

from silosynth import fixedpoint as fx
from silosynth.circuits import (
    _carry_prefix,
    add_components,
    and_packed,
    b2a,
    b2a_sum,
    bit_extract,
    less_than_bits,
    matmul_shares,
    mul_shares,
    trunc_shares,
)
from silosynth.fixedpoint import FixedPointConfig
from silosynth.rng import CounterStream, derive_key
from silosynth.runtime import run_parties
from silosynth.sharing import ShareVector

FP = FixedPointConfig()


def run3(body, seed=99):
    results, parties = run_parties(body, master_seed=seed, fp=FP, timeout=60.0)
    return results, parties


def shared_input(values, tag=0):
    return share_values(fx.to_u64(values), CounterStream(derive_key(4321, "circ", tag)))


def test_mul_shares_random_pairs():
    """Equal shapes, and a broadcasting pair (4, 1, 3) * (5, 3), which sends
    one word per output element per party."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2**64, size=10_000, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=10_000, dtype=np.uint64)
    bx = rng.integers(0, 2**64, size=(4, 1, 3), dtype=np.uint64)
    by = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64)
    sx, sy = shared_input(x, 1), shared_input(y, 2)
    sbx, sby = shared_input(bx, 10), shared_input(by, 11)

    results, _ = run3(lambda p: mul_shares(p, sx[p.pid - 1], sy[p.pid - 1]))
    assert np.array_equal(reconstruct(results), x * y)
    results, parties = run3(lambda p: mul_shares(p, sbx[p.pid - 1], sby[p.pid - 1]))
    assert np.array_equal(reconstruct(results), bx * by)
    assert [p.ledger.entry("adhoc").bytes_sent for p in parties] == [4 * 5 * 3 * 8] * 3


def test_mul_costs_three_ring_elements():
    sx, sy = shared_input([3], 3), shared_input([4], 4)

    def body(p):
        with p.protocol("adhoc"):
            return mul_shares(p, sx[p.pid - 1], sy[p.pid - 1])

    results, parties = run3(body)
    assert int(reconstruct(results)[0]) == 12
    total_bytes = sum(p.ledger.entry("adhoc").bytes_sent for p in parties)
    total_msgs = sum(p.ledger.entry("adhoc").messages_sent for p in parties)
    assert total_bytes == 3 * 8
    assert total_msgs == 3
    assert all(p.ledger.entry("adhoc").rounds == 1 for p in parties)


def test_mul_by_zero():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2**64, size=50, dtype=np.uint64)
    sx = shared_input(x, 5)
    sz = shared_input(np.zeros(50, dtype=np.uint64), 6)

    def body(p):
        return mul_shares(p, sx[p.pid - 1], sz[p.pid - 1])

    results, _ = run3(body)
    assert np.all(reconstruct(results) == 0)


def test_zero_sharing_sums_to_zero_each_step():
    def body(p):
        return [p.add_zero_sharing(np.zeros(8, dtype=np.uint64)) for _ in range(5)]

    results, _ = run3(body)
    for step in range(5):
        total = results[0][step] + results[1][step] + results[2][step]
        assert np.all(total == 0)


def test_and_packed_truth():
    """Equal shapes, and a broadcasting pair (4, 1, 3) & (5, 3), which sends
    one word per output element per party."""
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2**64, size=200, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=200, dtype=np.uint64)
    bx = rng.integers(0, 2**64, size=(4, 1, 3), dtype=np.uint64)
    by = rng.integers(0, 2**64, size=(5, 3), dtype=np.uint64)
    sx, sy = shared_xor_input(x, 7), shared_xor_input(y, 8)
    sbx, sby = shared_xor_input(bx, 12), shared_xor_input(by, 13)

    results, _ = run3(lambda p: and_packed(p, sx[p.pid - 1], sy[p.pid - 1]))
    assert np.array_equal(reconstruct_xor(results), x & y)
    results, parties = run3(lambda p: and_packed(p, sbx[p.pid - 1], sby[p.pid - 1]))
    assert np.array_equal(reconstruct_xor(results), bx & by)
    assert [p.ledger.entry("adhoc").bytes_sent for p in parties] == [4 * 5 * 3 * 8] * 3


def shared_xor_input(values, tag):
    x = fx.to_u64(values)
    stream = CounterStream(derive_key(4321, "circ-xor", tag))
    x1 = stream.next_words(x.size).reshape(x.shape)
    x2 = stream.next_words(x.size).reshape(x.shape)
    x3 = x ^ x1 ^ x2
    return [ShareVector(x1, x2), ShareVector(x2, x3), ShareVector(x3, x1)]


def test_add_components_recovers_bits():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2**64, size=500, dtype=np.uint64)
    sx = shared_input(x, 9)

    def body(p):
        bits, _, _ = add_components(p, sx[p.pid - 1])
        return bits

    results, _ = run3(body)
    assert np.array_equal(reconstruct_xor(results), x)


def _clear_adder(x1, x2, x3):
    """Cleartext model of add_components: (sum_bits, maj, carry) where carry
    bit t is the carry out of position t of s + (maj << 1), s = x1 ^ x2 ^ x3."""
    s = x1 ^ x2 ^ x3
    maj = (x1 & x2) ^ (x2 & x3) ^ (x3 & x1)
    cw = maj << np.uint64(1)
    total = s + cw
    carry = ((total ^ s ^ cw) >> np.uint64(1)) | ((total < s).astype(np.uint64) << np.uint64(63))
    return total, maj, carry


def test_add_components_matches_clear_model_lane_for_lane():
    """Random components and every triple of the edge components 0, 1, 2^63
    and 2^64 - 1: sum bits, majority and prefix-generate word, bit for bit."""
    rng = np.random.default_rng(19)
    edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    grid = np.stack(np.meshgrid(edges, edges, edges, indexing="ij")).reshape(3, -1)
    comps = np.concatenate([grid, rng.integers(0, 2**64, size=(3, 500), dtype=np.uint64)], axis=1)
    x1, x2, x3 = comps
    shares = [ShareVector(x1, x2), ShareVector(x2, x3), ShareVector(x3, x1)]

    def body(p):
        return add_components(p, shares[p.pid - 1])

    results, _ = run3(body)
    got = [reconstruct_xor([r[k] for r in results]) for k in range(3)]
    want = _clear_adder(x1, x2, x3)
    assert np.array_equal(want[0], x1 + x2 + x3)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_add_components_costs_eight_rounds_and_eight_words():
    """Majority, generate and six one-word prefix levels: a byte regression
    in the adder under every comparison and truncation fails here."""
    n = 300
    sx = shared_input(np.arange(n), 20)

    def body(p):
        with p.protocol("adhoc"):
            add_components(p, sx[p.pid - 1])
        e = p.ledger.entry("adhoc")
        return e.rounds, e.bytes_sent

    results, _ = run3(body)
    assert results == [(8, 8 * n * 8)] * 3


def test_carry_prefix_matches_numpy_carries():
    """Lane t of the carry word is the carry out of lane t of a + b: the carry
    into lane t + 1, and the overflow at lane 63. Zero, 2^64 - 1 plus 1 (a
    carry through every lane), alternating-bit words and random pairs, in
    7 rounds and 7 words per element: one generate AND and six levels."""
    rng = np.random.default_rng(23)
    alt = [0, 2**64 - 1, 1, 0x5555555555555555, 0xAAAAAAAAAAAAAAAA]
    ea, eb = (g.ravel() for g in np.meshgrid(np.array(alt, dtype=np.uint64), np.array(alt, dtype=np.uint64)))
    a = np.concatenate([ea, rng.integers(0, 2**64, size=1000, dtype=np.uint64)])
    b = np.concatenate([eb, rng.integers(0, 2**64, size=1000, dtype=np.uint64)])
    sa, sb = shared_xor_input(a, 50), shared_xor_input(b, 51)

    def body(p):
        with p.protocol("adhoc"):
            carry = _carry_prefix(p, sa[p.pid - 1], sb[p.pid - 1])
        e = p.ledger.entry("adhoc")
        return carry, (e.rounds, e.bytes_sent)

    results, _ = run3(body)
    total = a + b
    want = ((total ^ a ^ b) >> np.uint64(1)) | ((total < a).astype(np.uint64) << np.uint64(63))
    assert want[(a == 2**64 - 1) & (b == 1)][0] == 2**64 - 1       # the full ripple
    assert want[(a == 0) & (b == 0)][0] == 0
    assert np.array_equal(reconstruct_xor([r[0] for r in results]), want)
    assert [r[1] for r in results] == [(7, 7 * a.size * 8)] * 3


def comparator_pairs():
    """Random pairs, ties, adjacent words, the extremes 0, -2^63 and 2^63 - 1
    against each other, and pairs whose difference wraps past 2^63."""
    rng = np.random.default_rng(21)
    x = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
    y[:200] = x[:200]                                            # ties
    y[200:400] = x[200:400] + np.uint64(1)                       # adjacent, both ways
    x[400:600] = y[400:600] + np.uint64(1)
    y[600:700] = x[600:700] ^ np.uint64(1)                       # differ in lane 0 only
    edges = fx.to_u64(np.array([0, -2**63, 2**63 - 1, -1, 1], dtype=np.int64))
    ex, ey = np.meshgrid(edges, edges)
    wide = fx.to_u64(rng.integers(-2**62, 2**62, size=(2, 300), dtype=np.int64))
    wide[0] += np.uint64(1 << 62)                                # x - y reaches past 2^63
    wide[1] -= np.uint64(1 << 62)
    return np.concatenate([x, ex.ravel(), wide[0]]), np.concatenate([y, ey.ravel(), wide[1]])


def test_less_than_bits_matches_numpy_unsigned_and_signed():
    """The comparator orders any two words, unsigned as given and signed with
    bit 63 flipped (the sort's form), where the sign of x - y would wrap, in
    7 rounds and 7 words per element: one AND for NOT x AND y and one packed
    AND word per level."""
    x, y = comparator_pairs()
    flip = np.uint64(1 << 63)
    sign_of_difference = fx.signed(x - y) < 0
    assert np.any(sign_of_difference != (fx.signed(x) < fx.signed(y)))   # the arithmetic lt errs
    sx, sy = shared_xor_input(x, 30), shared_xor_input(y, 31)
    flipped_x, flipped_y = shared_xor_input(x ^ flip, 32), shared_xor_input(y ^ flip, 33)

    def body(p):
        with p.protocol("adhoc"):
            unsigned = less_than_bits(p, sx[p.pid - 1], sy[p.pid - 1])
        e = p.ledger.entry("adhoc")
        cost = e.rounds, e.bytes_sent
        return unsigned, less_than_bits(p, flipped_x[p.pid - 1], flipped_y[p.pid - 1]), cost

    results, _ = run3(body)
    unsigned = reconstruct_xor([r[0] for r in results])
    signed = reconstruct_xor([r[1] for r in results])
    assert np.array_equal(unsigned, (x < y).astype(np.uint64))
    assert np.array_equal(signed, (fx.signed(x) < fx.signed(y)).astype(np.uint64))
    assert [r[2] for r in results] == [(7, 7 * x.size * 8)] * 3


def test_b2a_bit_values():
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, size=300, dtype=np.uint64)
    sb = shared_xor_input(bits, 10)

    def body(p):
        return b2a(p, bit_extract(sb[p.pid - 1], 0))

    results, _ = run3(body)
    assert np.array_equal(reconstruct(results), bits)


def test_b2a_sum_matches_weighted_numpy_sum():
    """Random 0/1 lanes at L = 1, 2, 4, 32, with scalar weights and the
    per-element weight arrays trunc_shares passes for array shifts: the
    value is sum_t w_t * bit_t mod 2^64, in 2 rounds of L * n + n words.
    Two 0-d lanes whose weights wrap the ring give a 0-d sum, with no
    overflow warning (tier-1 turns a RuntimeWarning into a failure)."""
    rng = np.random.default_rng(12)
    n = 50
    for lanes in (1, 2, 4, 32):
        bits = rng.integers(0, 2, size=(lanes, n), dtype=np.uint64)
        weights = [rng.integers(0, 2**64, dtype=np.uint64) if t % 2 else
                   rng.integers(0, 2**64, size=n, dtype=np.uint64) for t in range(lanes)]
        want = sum((w * b for w, b in zip(weights, bits)), np.zeros(n, dtype=np.uint64))
        sb = shared_xor_input(bits, 40 + lanes)

        def body(p):
            lane_shares = [bit_extract(sb[p.pid - 1][t], 0) for t in range(lanes)]
            with p.protocol("adhoc"):
                out = b2a_sum(p, lane_shares, weights)
            e = p.ledger.entry("adhoc")
            return out, (e.rounds, e.bytes_sent)

        results, _ = run3(body)
        assert np.array_equal(reconstruct([r[0] for r in results]), want)
        assert [r[1] for r in results] == [(2, (lanes * n + n) * 8)] * 3
    weights = [np.uint64(2**63 + 5), np.uint64(2**63 + 7)]
    sb = shared_xor_input(np.ones(2, dtype=np.uint64), 39)
    results, _ = run3(lambda p: b2a_sum(p, [bit_extract(sb[p.pid - 1][t], 0) for t in range(2)], weights))
    assert results[0].shape == ()
    assert reconstruct(results) == np.uint64(12)


def test_trunc_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    vals = rng.integers(-(2**60), 2**60, size=2000, dtype=np.int64).view(np.uint64)
    sx = shared_input(vals, 11)

    def body(p):
        return trunc_shares(p, sx[p.pid - 1], 16)

    results, _ = run3(body)
    assert np.array_equal(reconstruct(results), fx.truncate(vals, 16))


def test_trunc_example_values():
    one, neg15, two = fx.encode_scalar(1.0), fx.encode_scalar(-1.5), fx.encode_scalar(2.0)
    prods = np.array([one * one, (neg15 * two) & fx.MASK], dtype=np.uint64)
    sx = shared_input(prods, 12)

    def body(p):
        return trunc_shares(p, sx[p.pid - 1], 16)

    results, _ = run3(body)
    out = fx.decode(reconstruct(results))
    assert out[0] == 1.0 and out[1] == -3.0


def test_trunc_vector_shifts():
    vals = np.array([96, 40, -96 % 2**64, 1024], dtype=np.uint64)
    shifts = np.array([5, 3, 5, 10])
    sx = shared_input(vals, 13)

    def body(p):
        return trunc_shares(p, sx[p.pid - 1], shifts)

    results, _ = run3(body)
    got = fx.signed(reconstruct(results))
    assert list(got) == [3, 5, -3, 1]


def test_matmul_shares():
    rng = np.random.default_rng(14)
    x = rng.integers(0, 2**32, size=(6, 4), dtype=np.uint64)
    y = rng.integers(0, 2**32, size=(4, 3), dtype=np.uint64)
    sx, sy = shared_input(x, 14), shared_input(y, 15)

    def body(p):
        return matmul_shares(p, sx[p.pid - 1], sy[p.pid - 1])

    results, _ = run3(body)
    assert np.array_equal(reconstruct(results), x @ y)


def test_xor_packed_local():
    x = np.array([0b1100], dtype=np.uint64)
    y = np.array([0b1010], dtype=np.uint64)
    sx, sy = shared_xor_input(x, 16), shared_xor_input(y, 17)
    out = [a ^ b for a, b in zip(sx, sy)]
    assert int(reconstruct_xor(out)[0]) == 0b0110


def test_bit_extract_positions():
    x = np.array([0b1011], dtype=np.uint64)
    sx = shared_xor_input(x, 18)
    got = [bit_extract(s, 1) for s in sx]
    assert int(reconstruct_xor(got)[0]) == 1
    got = [bit_extract(s, 2) for s in sx]
    assert int(reconstruct_xor(got)[0]) == 0
