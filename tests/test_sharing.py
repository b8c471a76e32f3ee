import numpy as np
import pytest
from conftest import IntegrityError, reconstruct, reconstruct_xor, share_values, shared_xor

from silosynth import fixedpoint as fx
from silosynth.fixedpoint import FixedPointConfig
from silosynth.rng import CounterStream, derive_key
from silosynth.runtime import Party
from silosynth.sharing import ShareVector


def fresh_stream(tag=0):
    return CounterStream(derive_key(1234, "test-share", tag))


def test_share_reconstruct_roundtrip():
    x = fx.encode(np.array([7.25, -3.0, 0.0]))
    shares = share_values(x, fresh_stream())
    assert np.array_equal(reconstruct(shares), x)


def test_share_of_zero_sums_to_zero():
    shares = share_values(np.zeros(5, dtype=np.uint64), fresh_stream(1))
    total = shares[0].a + shares[1].a + shares[2].a
    assert np.all(total == 0)


def test_share_deterministic_given_seed():
    x = np.arange(10, dtype=np.uint64)
    s1 = share_values(x, fresh_stream(2))
    s2 = share_values(x, fresh_stream(2))
    for a, b in zip(s1, s2):
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)


def test_reconstruct_checks_overlap():
    shares = share_values(np.arange(4, dtype=np.uint64), fresh_stream(3))
    shares[1].a[0] += np.uint64(1)
    with pytest.raises(IntegrityError):
        reconstruct(shares)


def test_modular_sum_example():
    s = [
        ShareVector(np.array([3], dtype=np.uint64), np.array([5], dtype=np.uint64)),
        ShareVector(np.array([5], dtype=np.uint64), np.array([(2**64 - 6)], dtype=np.uint64)),
        ShareVector(np.array([2**64 - 6], dtype=np.uint64), np.array([3], dtype=np.uint64)),
    ]
    assert int(reconstruct(s)[0]) == 2


def test_linear_ops_homomorphic():
    stream = fresh_stream(4)
    x = fx.encode(np.array([2.0, -4.5]))
    y = fx.encode(np.array([3.0, 1.25]))
    sx, sy = share_values(x, stream), share_values(y, stream)
    added = [a + b for a, b in zip(sx, sy)]
    assert np.array_equal(reconstruct(added), x + y)
    negated = [a + (-b) for a, b in zip(sx, sy)]
    assert np.array_equal(reconstruct(negated), x - y)
    scaled = [a.scale_by(4) for a in sx]
    assert np.array_equal(reconstruct(scaled), x * np.uint64(4))


def test_public_scaling_fixed_point():
    # 4 * [[2.5]] opens to encode(10.0): public integer scaling needs no truncation
    sx = share_values(fx.encode(np.array([2.5])), fresh_stream(5))
    scaled = [s.scale_by(4) for s in sx]
    assert int(reconstruct(scaled)[0]) == fx.encode_scalar(10.0)


def three_parties():
    """Parties for local share algebra only: they have no transport."""
    return [Party(pid, None, 3, FixedPointConfig()) for pid in (1, 2, 3)]


def test_add_public_linearity():
    parties = three_parties()
    sx = share_values(np.array([100], dtype=np.uint64), fresh_stream(6))
    shifted = [p.add_public(s, np.uint64(23)) for p, s in zip(parties, sx)]
    assert int(reconstruct(shifted)[0]) == 123


@pytest.mark.parametrize("k", [1, 2, 3])
def test_const_share_places_v_in_component_k(k):
    """x_k = v, held by party k (as a) and party k - 1 (as b); the third
    party's pair is zero."""
    v = np.array([5, 2**63, 7], dtype=np.uint64)
    shares = [p.const_share(v, k) for p in three_parties()]
    assert np.array_equal(reconstruct(shares), v)
    holders = {k, (k - 2) % 3 + 1}
    for pid, s in zip((1, 2, 3), shares):
        held = [c for c in (s.a, s.b) if np.any(c)]
        assert len(held) == (pid in holders)
        assert all(np.array_equal(c, v) for c in held)


@pytest.mark.parametrize("xor", [False, True])
def test_split_is_lead_at_party_1_and_third_at_parties_2_and_3(xor, rng):
    x = rng.integers(0, 2**64, size=(3, 4), dtype=np.uint64)
    shares = shared_xor(x, 1) if xor else share_values(x, fresh_stream(7))
    (lead, none1), (none2, third), (none3, third3) = [p.split(s, xor) for p, s in zip(three_parties(), shares)]
    assert np.array_equal(third, third3)
    assert np.array_equal(lead ^ third if xor else lead + third, x)
    for zero in (none1, none2, none3):
        assert zero.shape == x.shape and not np.any(zero) and not zero.flags.writeable


def test_pair_term_splits_x_between_parties_2_and_3(rng):
    x = rng.integers(0, 2**64, size=(3, 4), dtype=np.uint64)
    t1, t2, t3 = [p.pair_term(s) for p, s in zip(three_parties(), share_values(x, fresh_stream(8)))]
    assert np.array_equal(t2 + t3, x)
    assert t1.shape == x.shape and not np.any(t1) and not t1.flags.writeable


def test_xor_and_shifts_match_numpy(rng):
    x = rng.integers(0, 2**64, size=6, dtype=np.uint64)
    y = rng.integers(0, 2**64, size=6, dtype=np.uint64)
    sx, sy = shared_xor(x, 2), shared_xor(y, 3)
    assert np.array_equal(reconstruct_xor([a ^ b for a, b in zip(sx, sy)]), x ^ y)
    shifts = np.arange(6, dtype=np.uint64) * np.uint64(11)
    for k in (0, 1, 63, shifts):
        assert np.array_equal(reconstruct_xor([s << k for s in sx]), x << k)
        assert np.array_equal(reconstruct_xor([s >> k for s in sx]), x >> k)


def test_single_view_distribution_independent_of_secret():
    # Party 1's component marginals should look identical for two secrets.
    n = 4000
    views = {}
    for tag, value in ((10, 0.0), (11, 12345.678)):
        word = fx.encode_scalar(value)
        stream = fresh_stream(tag)
        samples = share_values(np.full(n, np.uint64(word)), stream)[0]
        views[value] = samples
    for value, view in views.items():
        for comp in (view.a, view.b):
            buckets = np.bincount((comp & np.uint64(15)).astype(int), minlength=16)
            # chi-square against uniform over 16 buckets, 4000 draws
            chi2 = float((((buckets - n / 16.0) ** 2) / (n / 16.0)).sum())
            assert chi2 < 45.0, f"nonuniform single view for secret {value}"
