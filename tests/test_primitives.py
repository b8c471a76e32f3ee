"""Secure primitives vs cleartext signed fixed-point oracles."""

import warnings

import clear_reference as ref
import numpy as np
import pytest
from conftest import reconstruct, reconstruct_xor, share_values, shared_matrix, shared_xor, sort_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from silosynth import fixedpoint as fx
from silosynth import primitives
from silosynth.binning import compute_bin_means
from silosynth.circuits import bit_extract, select
from silosynth.fixedpoint import FixedPointConfig
from silosynth.marginals import scaled_onehots_steps
from silosynth.primitives import (
    and_all_steps,
    div_fx,
    div_public_steps,
    eq_zero,
    gauss01,
    is_negative_steps,
    lt,
    select_max,
    sort_columns,
)
from silosynth.rng import CounterStream, derive_key
from silosynth.runtime import Party, run_parties

FP = FixedPointConfig()


def run3(body, seed=77, timeout=120.0):
    return run_parties(body, master_seed=seed, fp=FP, timeout=timeout)


def shared(values, tag):
    return share_values(fx.to_u64(values), CounterStream(derive_key(555, "prim", tag)))


def abs_shares(p, x):
    """|x| the way the workload error takes it: x where x >= 0, else -x."""
    return select(p, p.run(is_negative_steps(p, x)), x, -x)


def open_result(results):
    return reconstruct(results)


def test_lt_oracle_sweep():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1000, 1000, size=1000)
    b = rng.uniform(-1000, 1000, size=1000)
    ea, eb = fx.encode(a), fx.encode(b)
    sa, sb = shared(ea, 1), shared(eb, 2)

    def body(p):
        return lt(p, sa[p.pid - 1], sb[p.pid - 1])

    results, _ = run3(body)
    want = (fx.signed(ea) < fx.signed(eb)).astype(np.uint64)
    assert np.array_equal(reconstruct_xor(results), want)


def test_lt_examples():
    ea = fx.encode(np.array([2.0, 7.0, -1.5]))
    eb = fx.encode(np.array([5.0, 7.0, 0.0]))
    sa, sb = shared(ea, 3), shared(eb, 4)

    def body(p):
        return lt(p, sa[p.pid - 1], sb[p.pid - 1])

    results, _ = run3(body)
    assert list(reconstruct_xor(results)) == [1, 0, 1]


def test_eq_oracle_sweep():
    rng = np.random.default_rng(2)
    b = rng.integers(-(2**40), 2**40, size=1000, dtype=np.int64).view(np.uint64)
    sa, sb = shared(b, 5), shared(b, 6)

    def body(p):
        return eq_zero(p, sa[p.pid - 1] - sb[p.pid - 1])

    results, _ = run3(body)
    assert np.all(reconstruct_xor(results) == 1)


def test_eq_examples():
    vals = np.array([0, 5], dtype=np.uint64)
    sa = shared(vals, 7)

    def body(p):
        return eq_zero(p, sa[p.pid - 1])

    results, _ = run3(body)
    assert list(reconstruct_xor(results)) == [1, 0]


def test_eq_zero_edges_and_cost():
    """Zero, one-bit and top-bit words, the ring's extremes and random words;
    7 rounds and 7 words per element: one re-share and six AND levels."""
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        np.array([0, 1, 2**63, 2**64 - 1, 2**32, 2**64 - 2**32], dtype=np.uint64),
        np.uint64(1) << np.arange(64, dtype=np.uint64),
        rng.integers(0, 2**64, size=200, dtype=np.uint64),
        np.zeros(30, dtype=np.uint64),
    ])
    sv = shared(vals, 60)

    def body(p):
        with p.protocol("adhoc"):
            bit = eq_zero(p, sv[p.pid - 1])
        e = p.ledger["adhoc"]
        return bit, (e.rounds, e.bytes_sent)

    results, _ = run3(body)
    assert np.array_equal(reconstruct_xor([r[0] for r in results]), (vals == 0).astype(np.uint64))
    assert all(r[1] == (7, 7 * vals.size * 8) for r in results)


def test_abs_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-500, 500, size=600)
    x = np.concatenate([x, [-3.5, 0.0]])
    ex = fx.encode(x)
    sx = shared(ex, 8)

    def body(p):
        return abs_shares(p, sx[p.pid - 1])

    results, _ = run3(body)
    got = fx.decode(open_result(results))
    want = np.abs(fx.decode(ex))
    assert np.array_equal(got, want)


def test_abs_symmetry():
    rng = np.random.default_rng(4)
    x = fx.encode(rng.uniform(-100, 100, size=200))
    sx, sneg = shared(x, 9), shared(np.uint64(0) - x, 10)

    def body(p):
        return abs_shares(p, sx[p.pid - 1]), abs_shares(p, sneg[p.pid - 1])

    results, _ = run3(body)
    pos = reconstruct([r[0] for r in results])
    neg = reconstruct([r[1] for r in results])
    assert np.array_equal(pos, neg)


def test_and_all_matches_numpy_all():
    """Random 0/1 rows of widths 1-7: the AND over the last axis, as 0/1
    words, in ceil(log2 W) rounds."""
    rng = np.random.default_rng(10)
    # mostly ones, so rows of all ones are common
    cases = {w: (rng.random((40, w)) < 0.8).astype(np.uint64) for w in range(1, 8)}
    shares = {w: shared_xor(bits, 30 + w) for w, bits in cases.items()}

    def body(p):
        out = {}
        for w, sb in shares.items():
            p.ledger.clear()
            with p.protocol("adhoc"):
                out[w] = p.run(and_all_steps(p, sb[p.pid - 1]))
            out[w] = (out[w], p.ledger["adhoc"].rounds)
        return out

    results, _ = run3(body)
    for w, bits in cases.items():
        assert np.array_equal(reconstruct_xor([r[w][0] for r in results]), bits.all(axis=1))
        assert all(r[w][1] == (w - 1).bit_length() for r in results)


def test_select_max_matches_numpy():
    """Rows drawn from {-2..2} so ties are common: the value at the lowest
    index attaining the maximum, and through negation at the lowest-index
    minimum, of a table of random ring words."""
    rng = np.random.default_rng(11)
    cases = {w: rng.integers(-2, 3, size=(30, w)) for w in range(1, 6)}
    values = {w: rng.integers(0, 2**64, size=w, dtype=np.uint64) for w in cases}
    shares = {w: shared(fx.encode(z), 20 + w) for w, z in cases.items()}

    def body(p):
        out = {}
        for w, sz in shares.items():
            z = sz[p.pid - 1]
            p.ledger.clear()
            with p.protocol("adhoc"):
                out[w] = (select_max(p, z, values[w]), select_max(p, -z, values[w]))
            out[w] += (p.ledger["adhoc"].rounds,)
        return out

    results, _ = run3(body)
    for w, z in cases.items():
        at_max, at_min = (reconstruct([r[w][j] for r in results]) for j in range(2))
        assert np.array_equal(at_max, values[w][z.argmax(axis=1)])
        assert np.array_equal(at_min, values[w][z.argmin(axis=1)])
        # all pairs in one lt (8 rounds), an AND tree of ceil(log2(w - 1))
        # levels and one b2a_sum (2 rounds), twice; nothing for w = 1
        rounds = 8 + (w - 2).bit_length() + 2 if w > 1 else 0
        assert all(r[w][2] == 2 * rounds for r in results)


def test_select_max_of_one_row_warns_nothing():
    """A z of one row makes every candidate's lane 0-d; b2a_sum runs such
    lanes as 1-d ones, so its ring arithmetic, which wraps on these values,
    stays on arrays and raises no overflow warning."""
    rng = np.random.default_rng(14)
    z = np.array([1, -2, 1, 0, -1])
    values = rng.integers(2**63, 2**64, size=5, dtype=np.uint64)
    sz = shared(fx.encode(z), 27)

    def body(p):
        return select_max(p, sz[p.pid - 1], values), select_max(p, -sz[p.pid - 1], values)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results, _ = run3(body)
    assert results[0][0].shape == ()
    at_max, at_min = (reconstruct([r[j][None] for r in results])[0] for j in range(2))
    assert (at_max, at_min) == (values[0], values[1])


def test_select_max_bytes_pinned():
    """Over 5 classes a row sends 101 words: the 10 pairs' lt (80), the AND
    tree (10 + 5) and the b2a_sum (6: one word per candidate's lane and the
    sum the last re-share carries)."""
    rng = np.random.default_rng(13)
    sz = shared(fx.encode(rng.integers(-2, 3, size=(30, 5))), 26)

    def body(p):
        with p.protocol("adhoc"):
            select_max(p, sz[p.pid - 1], np.arange(5))
        return p.ledger["adhoc"].bytes_sent

    results, _ = run3(body)
    assert results == [101 * 30 * 8] * 3


def test_select_injection_matches_numpy():
    """select injects an XOR-shared bit: random bits on equal shapes, a bit
    broadcast over a payload stack, and differences y - x that wrap the ring.
    With equal shapes it costs 2 rounds and 3 words per element per party,
    what b2a and a product cost before."""
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=(40, 3), dtype=np.uint64)
    x, y = (rng.integers(0, 2**64, size=(40, 3), dtype=np.uint64) for _ in range(2))
    stack = rng.integers(0, 2**64, size=(4, 40, 3), dtype=np.uint64)
    sbits, sx, sy, sstack = shared_xor(bits, 1), shared(x, 50), shared(y, 51), shared(stack, 52)

    def body(p):
        i = p.pid - 1
        bit = bit_extract(sbits[i], 0)           # 0/1 components, as lt hands them over
        same = select(p, bit, sx[i], sy[i])
        cost = (p.ledger["adhoc"].rounds, p.ledger["adhoc"].bytes_sent)
        return same, select(p, bit, sx[i], sstack[i]), cost

    results, _ = run3(body)
    assert np.array_equal(reconstruct([r[0] for r in results]), np.where(bits == 1, y, x))
    assert np.array_equal(reconstruct([r[1] for r in results]), np.where(bits == 1, stack, x))
    assert all(r[2] == (2, 3 * bits.size * 8) for r in results)


DIV_TOL = 2.0**-14


def test_div_examples():
    """Sums divided by secret counts 4, 1 and 3, and an empty count's
    fallback, within two ulps of the quotients."""
    a = fx.encode(np.array([10.0, 1.75, 7.0, 0.0]))
    counts = np.array([4, 1, 3, 0], dtype=np.uint64)
    fallback = fx.encode(np.array([9.0, 9.0, 9.0, -1.5]))
    sa, sc, sf = shared(a, 11), shared(counts, 12), shared(fallback, 10)

    def body(p):
        return div_fx(p, sa[p.pid - 1], sc[p.pid - 1], 4, sf[p.pid - 1])

    results, _ = run3(body)
    got = fx.decode(open_result(results))
    want = np.array([2.5, 1.75, 7.0 / 3.0, -1.5])
    assert np.all(np.abs(got - want) <= DIV_TOL)


def clear_div_by_public_reciprocal(a, b, f=16):
    """div_fx's three products on public words, with src's reciprocal."""
    r = primitives.public_reciprocal(b, f)
    q = fx.truncate(a * r, f)
    return q + fx.truncate((a - fx.truncate(q * b, f)) * r, f)


def test_div_random_sweep():
    """The clear reciprocal, on arbitrary denominators, divides within two
    ulps and equals the mirror's."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-200, 200, size=300)
    b = rng.uniform(0.05, 400, size=300)
    ea, eb = fx.encode(a), fx.encode(b)
    got = clear_div_by_public_reciprocal(ea, eb)
    assert np.array_equal(got, ref.clear_div(ea, eb))
    assert np.max(np.abs(fx.decode(got) - fx.decode(ea) / fx.decode(eb))) <= DIV_TOL


@settings(max_examples=13, deadline=None)
@given(f=st.integers(8, 20), means=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6))
def test_div_by_largest_admitted_count_matches_mirror(f, means):
    """Bin means divide a sum by count * 2^f. At count = 2^f - 1, the largest
    the preflight admits, the division by the clear reciprocal equals the
    mirror and the mean within an ulp; at count = 2^f the quotient would be 0.
    (The secure lookup returns that reciprocal word for word:
    ``test_reciprocal_lookup_returns_the_clear_table``.)"""
    count = (1 << f) - 1
    mean_words = fx.encode(np.array(means), f)
    a = mean_words * np.uint64(count)
    b = np.full(len(means), count << f, dtype=np.uint64)
    got = clear_div_by_public_reciprocal(a, b, f)
    assert np.array_equal(got, ref.clear_div(a, b, f))
    assert np.all(np.abs(fx.signed(got) - fx.signed(mean_words)) <= 1)
    assert not ref.clear_div(a, b + (np.uint64(1) << np.uint64(f)), f).any()


@pytest.mark.parametrize("n", [63, 64, 65, 200])
def test_reciprocal_lookup_returns_the_clear_table(n):
    """Every count in [0, n] looks up the mirror's row word for word: the
    empty bit and the reciprocal of max(count, 1) 2^f. div_fx then equals
    the mirror's division plus the fallback on the empty count. The lookup
    takes 8 + ceil(log2 l) + 2 rounds for l = bit_length(n); per count it
    sends 8 words for the bits, l - 1 AND words per 64 lanes, and n + 1
    words, then 2, in the b2a_sum."""
    rng = np.random.default_rng(n)
    counts = np.arange(n + 1, dtype=np.uint64)
    denom = np.maximum(counts, 1) << np.uint64(16)
    sums = fx.encode(rng.uniform(-3, 3, size=n + 1)) * counts
    fallback = fx.encode(rng.uniform(-3, 3, size=n + 1))
    sc, ss, sf = shared(counts, 60), shared(sums, 61), shared(fallback, 62)

    def body(p):
        i = p.pid - 1
        with p.protocol("adhoc"):
            row = primitives.reciprocal_fx(p, sc[i], n)
        cost = (p.ledger["adhoc"].rounds, p.ledger["adhoc"].bytes_sent)
        return row, div_fx(p, ss[i], sc[i], n, sf[i]), cost

    results, _ = run3(body)
    want = np.stack([(counts == 0).astype(np.uint64), ref.clear_reciprocal(denom)])
    assert np.array_equal(open_result([r[0] for r in results]), want)
    empty = np.where(counts == 0, fallback, np.uint64(0))
    assert np.array_equal(open_result([r[1] for r in results]), ref.clear_div(sums, denom) + empty)
    ell, words = n.bit_length(), n // 64 + 1
    per_count = 8 + (ell - 1) * words + (n + 1) + 2
    assert all(r[2] == (8 + (ell - 1).bit_length() + 2, 8 * (n + 1) * per_count) for r in results)


def count_pairs(f, rng=None, size=None):
    """(hits, n) with 0 <= hits <= n < 2^f: every pair, or ``size`` random ones."""
    if rng is None:
        n = np.repeat(np.arange(1, 1 << f), np.arange(2, (1 << f) + 1))
        hits = np.concatenate([np.arange(k + 1) for k in range(1, 1 << f)])
    else:
        n = rng.integers(1, 1 << f, size=size)
        hits = rng.integers(0, n + 1)
    return hits.astype(np.uint64), n.astype(np.uint64)


@pytest.mark.parametrize("f", [8, 12, 16, 20])
def test_public_divisor_identity_matches_div_fx(f):
    """For hits <= n < 2^f, div_fx of hits 2^f by n 2^f is q + trunc((hits 2^f
    - q n) r, f) with r the reciprocal of n 2^f and q = hits r: its other
    truncations drop nothing. Every pair at f = 8, 20,000 random ones above."""
    hits, n = count_pairs(f) if f == 8 else count_pairs(f, np.random.default_rng(f), 20_000)
    one = np.uint64(1) << np.uint64(f)
    r = ref.clear_reciprocal(n * one, f)
    q = hits * r
    got = q + fx.truncate((hits * one - q * n) * r, f)
    assert np.array_equal(got, ref.clear_div(hits * one, n * one, f))


def test_div_public_every_count_below_2_to_8_matches_mirror():
    """The secure public-divisor division at f = 8, for every (hits, n) with
    hits <= n < 2^8, word for word the mirror's division, in one truncation."""
    hits, n = count_pairs(8)
    sh = share_values(hits, CounterStream(derive_key(555, "div-public", 8)))

    def body(p):
        with p.protocol("adhoc"):
            return p.run(div_public_steps(p, sh[p.pid - 1], n))

    results, parties = run_parties(body, master_seed=77, fp=FixedPointConfig(8), timeout=120.0)
    one = np.uint64(1) << np.uint64(8)
    assert np.array_equal(open_result(results), ref.clear_div(hits * one, n * one, 8))
    assert [p.ledger["adhoc"].rounds for p in parties] == [10, 10, 10]


def test_sort_small_example():
    vals = fx.encode(np.array([[3.0], [1.0], [2.0]]))
    batch = fx.encode(np.array([[[3.0, -1.0], [1.0, 5.0], [2.0, 0.0]],
                                [[0.5, 2.0], [-4.0, 2.0], [7.0, -3.0]]]))
    sv, sb = shared(vals, 15), shared(batch, 16)

    def body(p):
        return sort_rows(p, sv[p.pid - 1]), sort_rows(p, sb[p.pid - 1])

    results, _ = run3(body)
    assert list(fx.decode(open_result([r[0] for r in results]))[:, 0]) == [1.0, 2.0, 3.0]
    # a (2, n, d) batch without ``rows``: each batch sorts on its own
    got = fx.signed(reconstruct([r[1] for r in results]))
    assert np.array_equal(got, np.sort(fx.signed(batch), axis=1))


def test_sort_random_multiset_and_fixedpoint():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 60))
        vals = fx.encode(rng.uniform(-50, 50, size=(n, 1)))
        sv = shared(vals, 100 + trial)

        def body(p):
            first = sort_rows(p, sv[p.pid - 1])
            return first, sort_rows(p, first)

        results, _ = run3(body)
        got = fx.signed(reconstruct([r[0] for r in results]))
        again = fx.signed(reconstruct([r[1] for r in results]))
        assert np.array_equal(got, np.sort(fx.signed(vals), axis=0))
        assert np.array_equal(again, got)  # sorting a sorted vector is a fixed point


def test_sort_prunes_padding_and_matches_numpy():
    """Row counts that are not powers of two, unequal per fold, with ties:
    every fold's first rows[k] outputs are its sorted data rows, and its
    rows past rows[k] come back unchanged."""
    rng = np.random.default_rng(13)
    rows = np.array([5, 11, 7])
    vals = fx.encode(rng.integers(-2, 3, size=(3, 11, 2)).astype(float))
    sv = shared(vals, 53)

    def body(p):
        return sort_rows(p, sv[p.pid - 1], rows)

    results, _ = run3(body)
    got = fx.signed(reconstruct(results))
    for k, r in enumerate(rows):
        assert np.array_equal(got[k, :r], np.sort(fx.signed(vals[k, :r]), axis=0))
        assert np.array_equal(got[k, r:], fx.signed(vals[k, r:]))   # rows past rows[k] left as they are


def test_sort_bytes_pinned():
    """(1, 100, 1): the 100-key merge exchange makes 1,077 compare-swaps of
    8 words (the comparator's 7 and the swap's AND) in 28 layers of 8 rounds.
    Its 100 positions are converted to bits (8 rounds, 8 words each) and,
    all read, back (2 rounds, 65 words each): 234 rounds."""
    vals = fx.encode(np.random.default_rng(14).uniform(-50, 50, size=(1, 100, 1)))
    sv = shared(vals, 54)

    def body(p):
        with p.protocol("adhoc"):
            return sort_rows(p, sv[p.pid - 1])

    results, parties = run3(body)
    assert np.array_equal(fx.signed(reconstruct(results)), np.sort(fx.signed(vals), axis=1))
    for p in parties:
        e = p.ledger["adhoc"]
        assert (e.rounds, e.bytes_sent) == (234, (100 * (8 + 65) + 1077 * 8) * 8)


def test_sort_uneven_batches_one_call():
    """Batches of 2, 5, 100 and 200 rows in a (4, 200, 1) call: each runs its
    own network (1, 6, 28 and 36 layers), zipped, so the call takes the
    deepest one's 36 layers of 8 rounds between one conversion each way
    (8 + 288 + 2 rounds), and the bytes of the four separate sorts:
    1 + 9 + 1,077 + 2,827 = 3,914 compare-swaps of 8 words, and 307
    positions converted to bits and back at 8 + 65 words."""
    rng = np.random.default_rng(15)
    rows = np.array([2, 5, 100, 200])
    vals = fx.encode(rng.uniform(-50, 50, size=(4, 200, 1)))
    sv = shared(vals, 56)

    def body(p):
        with p.protocol("adhoc"):
            together = sort_rows(p, sv[p.pid - 1], rows)
        with p.protocol("sort"):
            for k, r in enumerate(rows):
                sort_rows(p, sv[p.pid - 1][k, :r])
        return together

    results, parties = run3(body)
    got = fx.signed(reconstruct(results))
    for k, r in enumerate(rows):
        assert np.array_equal(got[k, :r], np.sort(fx.signed(vals[k, :r]), axis=0))
    for p in parties:
        together, separate = p.ledger["adhoc"], p.ledger["sort"]
        assert together.rounds == 8 + 8 * 36 + 2
        assert together.bytes_sent == separate.bytes_sent == (307 * (8 + 65) + 3914 * 8) * 8


def test_sort_cone_sorts_read_positions():
    """With the quantile positions of 100 rows as ``read``, only the 945
    compare-swaps those positions depend on are secret (1,077 in the full
    sort), the depth stays 28 layers, only the 6 read positions of each
    column are converted back (all 100 are converted to bits), and every
    read position of a random and a tied column equals numpy's sort."""
    from silosynth.binning import quantile_positions

    rng = np.random.default_rng(16)
    cols = np.stack([rng.uniform(-50, 50, size=100), rng.integers(-2, 3, size=100)], axis=1)
    vals = fx.encode(cols[None])
    i, frac = quantile_positions([100])
    read = np.zeros((1, 100), dtype=bool)
    read[0, np.concatenate([i, i + (frac != 0)], axis=1)[0]] = True
    sv = shared(vals, 57)

    def body(p):
        with p.protocol("adhoc"):
            return sort_columns(p, sv[p.pid - 1], 100, read)

    results, parties = run3(body)
    got = fx.signed(reconstruct(results))[0]
    want = np.sort(fx.signed(vals[0]), axis=0)
    assert np.array_equal(got[read[0]], want[read[0]])
    for p in parties:
        e = p.ledger["adhoc"]
        assert (e.rounds, e.bytes_sent) == (234, (100 * 8 + 945 * 8 + 6 * 65) * 2 * 8)


def test_sort_extreme_words():
    """Words the arithmetic comparison cannot order, because their difference
    wraps past 2^63, sort in signed order: -2^63, 2^63 - 1, 0, +-1 and random
    words of the whole ring, ties among them."""
    rng = np.random.default_rng(17)
    edges = np.array([-2**63, 2**63 - 1, 0, -1, 1, -2**63, 2**63 - 1], dtype=np.int64)
    words = np.concatenate([edges, rng.integers(-2**63, 2**63 - 1, size=40, dtype=np.int64)])
    vals = fx.to_u64(np.stack([words, rng.permutation(words)], axis=1))
    sv = shared(vals, 58)

    def body(p):
        return sort_rows(p, sv[p.pid - 1])

    results, _ = run3(body)
    assert np.array_equal(fx.signed(reconstruct(results)), np.sort(fx.signed(vals), axis=0))


def test_sort_returns_unread_and_untouched_positions_as_input():
    """Only read positions that a compare-swap touched change: the read
    positions hold sorted values, and every other position (unread, in a
    one-row batch, or past a batch's rows) comes back as its input shares."""
    from silosynth.binning import quantile_positions

    rng = np.random.default_rng(18)
    rows = np.array([40, 1, 25])
    vals = fx.encode(rng.uniform(-50, 50, size=(3, 40, 2)))
    i, frac = quantile_positions(np.maximum(rows, 2))
    read = np.zeros((3, 40), dtype=bool)
    read[np.arange(3)[:, None], np.concatenate([i, i + (frac != 0)], axis=1)] = True
    read[1] = [True] + [False] * 39                 # the one-row batch's row is read, never touched
    sv = shared(vals, 59)

    def body(p):
        return sort_columns(p, sv[p.pid - 1], rows, read)

    results, _ = run3(body)
    for out, inp in zip(results, sv):
        assert np.array_equal(out.a[~read], inp.a[~read]) and np.array_equal(out.b[~read], inp.b[~read])
    got = reconstruct(results)
    for k, r in enumerate(rows):
        want = np.sort(fx.signed(vals[k, :r]), axis=0)
        assert np.array_equal(fx.signed(got[k, :r][read[k, :r]]), want[read[k, :r]])


def clear_network(layers, x):
    """Run compare-swap layers in the clear along axis 0: the minimum goes to p."""
    x = x.copy()
    for p, q in layers:
        x[p], x[q] = np.minimum(x[p], x[q]), np.maximum(x[p], x[q])
    return x


def test_merge_exchange_sorts_every_01_input():
    """The 0-1 principle: a comparator network that sorts every 0/1 input of
    n keys sorts every input of n keys."""
    for n in range(1, 13):
        bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
        assert np.array_equal(clear_network(primitives._merge_exchange(n), bits), np.sort(bits, axis=0))


def test_merge_exchange_shape_and_random_ties():
    """For every n in [1, 300]: ceil(lg n)(ceil(lg n) + 1)/2 layers, pairs
    with p < q and no key twice in a layer, and random columns with ties
    come out sorted."""
    rng = np.random.default_rng(17)
    for n in range(1, 301):
        layers = primitives._merge_exchange(n)
        t = (n - 1).bit_length()
        assert len(layers) == t * (t + 1) // 2
        for p, q in layers:
            assert np.all(p < q) and np.unique(np.concatenate([p, q])).size == 2 * p.size
        x = rng.integers(-3, 4, size=(n, 3))
        assert np.array_equal(clear_network(layers, x), np.sort(x, axis=0))


def test_sort_cone_never_deeper_than_full_plan():
    """The walk back from the quantile positions keeps a subset of each
    layer, so the cone plan is never deeper than the full one, and it
    leaves those positions as the full plan sorts them."""
    from silosynth.binning import quantile_positions

    rng = np.random.default_rng(18)
    for n in (2, 3, 7, 24, 100, 129, 300):
        rows = np.array([n])
        i, frac = quantile_positions([n])
        read = np.zeros((1, n), dtype=bool)
        read[0, np.concatenate([i, i + (frac != 0)], axis=1)[0]] = True
        full, cone = primitives._sort_plan(rows, np.ones((1, n), dtype=bool)), primitives._sort_plan(rows, read)
        assert len(cone) <= len(full)
        x = rng.integers(-3, 4, size=(n, 2))
        assert np.array_equal(clear_network(cone, x)[read[0]], np.sort(x, axis=0)[read[0]])


@pytest.mark.parametrize("frac_bits", [8, 20])
def test_sort_sentinel_above_every_encodable_input(frac_bits):
    """The sort needs no sentinel: rows past rows[k] never enter a comparison,
    so the largest encodable values (and 2^33 at f = 8) sort correctly."""
    big = 2.0 ** (62 - 2 * frac_bits) - 1.0
    vals = fx.encode(np.array([5.0, big, -1.0, -big, min(2.0**33, big)]), frac_bits)
    fp = FixedPointConfig(frac_bits)
    sv = share_values(vals[:, None], CounterStream(derive_key(555, "prim", 55)))

    def body(p):
        return sort_rows(p, sv[p.pid - 1][:3]), sort_rows(p, sv[p.pid - 1], 4)

    results, _ = run_parties(body, master_seed=77, fp=fp, timeout=120.0)
    first = fx.signed(reconstruct([r[0] for r in results]))[:, 0]
    second = fx.signed(reconstruct([r[1] for r in results]))[:4, 0]
    assert np.array_equal(first, np.sort(fx.signed(vals[:3])))
    assert np.array_equal(second, np.sort(fx.signed(vals[:4])))


def test_gauss_forced_uniforms_hit_zero(monkeypatch):
    """Random words whose low f bits read 0.5 make every uniform 0.5, so
    the sum of 12 less 6 is exactly 0."""
    def halves(party, shape):
        return party.const_share(np.full(shape, np.uint64(fx.encode_scalar(0.5)), dtype=np.uint64))

    monkeypatch.setattr(Party, "shared_random_words", halves)

    def body(p):
        return gauss01(p, 4, 1)

    results, _ = run3(body)
    assert np.all(fx.decode(open_result(results)) == 0.0)


def test_gauss_statistics_and_support():
    def body(p):
        return gauss01(p, 10_000, 1)

    results, _ = run3(body, seed=555)
    g = fx.decode(open_result(results))
    assert np.all(g >= -6.0) and np.all(g <= 6.0)
    assert abs(float(g.mean())) < 0.05
    assert 0.9 <= float(g.var()) <= 1.1


def test_div_nonpositive_denominator_no_leak():
    """Out-of-contract counts (negative, beyond n) still run obliviously
    (garbage out, no branch)."""
    good = shared(fx.encode(np.array([4.0, 2.0])), 41)
    bad_c = shared(np.array([-3, 9], dtype=np.int64), 42)
    good_c = shared(np.array([3, 1], dtype=np.uint64), 43)
    ledgers = []
    for counts in (good_c, bad_c):
        def body(p):
            with p.protocol("adhoc"):
                div_fx(p, good[p.pid - 1], counts[p.pid - 1], 4, good[p.pid - 1])

        _, parties = run3(body)
        snap = [p.ledger.snapshot() for p in parties]
        for s in snap:
            s["adhoc"].pop("seconds")
        ledgers.append(snap)
    assert ledgers[0] == ledgers[1]


def test_obliviousness_ledgers_match_across_inputs():
    """Ledgers equal across inputs, also for divisions by different counts
    and for bin means whose counts differ (the second input leaves three
    bins empty)."""
    rng = np.random.default_rng(7)
    runs = []
    for tag, scalefac in ((17, 1.0), (18, 37.5)):
        vals = fx.encode(rng.uniform(-5, 5, size=40) * scalefac)
        other = fx.encode(rng.uniform(0.1, 90, size=40) * max(scalefac, 1.0))
        counts = rng.integers(0, 41, size=40) if tag == 17 else np.repeat([0, 40], 20)
        bins = rng.integers(0, 4, size=(1, 40, 1)) if tag == 17 else np.full((1, 40, 1), 3)
        cuts = np.sort(fx.signed(vals[:3])).view(np.uint64).reshape(1, 1, 3)
        sv, so, sc = shared(vals, tag), shared(other, tag + 10), shared(counts, tag + 20)
        sbins, scuts = shared_matrix(bins[0], np.zeros(40, np.int64), tag + 30), shared(cuts, tag + 40)

        def body(p):
            i = p.pid - 1
            with p.protocol("adhoc"):
                lt(p, sv[i], so[i])
                eq_zero(p, sv[i] - so[i])
                abs_shares(p, sv[i])
                div_fx(p, sv[i], sc[i], 40, so[i])
                sort_rows(p, sv[i].reshape(-1, 1))
                compute_bin_means(p, p.run(scaled_onehots_steps(p, sbins[i]))[0], sv[i].reshape(1, 40, 1), scuts[i])
            return None

        _, parties = run3(body)
        snap = [p.ledger.snapshot() for p in parties]
        for s in snap:
            s["adhoc"].pop("seconds")
        runs.append(snap)
    assert runs[0] == runs[1]
