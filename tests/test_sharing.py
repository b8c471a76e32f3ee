import numpy as np
import pytest

from silosynth import fixedpoint as fx
from silosynth.rng import CounterStream, derive_key
from silosynth.sharing import IntegrityError, ShareVector, reconstruct, share_values


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


def test_add_public_linearity():
    from silosynth.fixedpoint import FixedPointConfig
    from silosynth.runtime import LocalRouter, LocalTransport, Party

    router = LocalRouter()
    parties = [Party(pid, LocalTransport(pid, router), 3, FixedPointConfig()) for pid in (1, 2, 3)]
    sx = share_values(np.array([100], dtype=np.uint64), fresh_stream(6))
    shifted = [p.add_public(s, np.uint64(23)) for p, s in zip(parties, sx)]
    assert int(reconstruct(shifted)[0]) == 123


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
