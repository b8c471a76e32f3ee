import numpy as np
import pytest

from silosynth import fixedpoint as fx


def test_encode_zero_and_one():
    assert fx.encode_scalar(0.0) == 0
    assert fx.encode_scalar(1.0) == 65536


def test_encode_negative_half():
    assert fx.encode_scalar(-0.5) == 2**64 - 32768


def test_decode_roundtrip_examples():
    assert list(fx.decode(np.array([65536, 0, 2**64 - 32768], dtype=np.uint64))) == [1.0, 0.0, -0.5]


def test_encode_out_of_range():
    with pytest.raises(fx.RangeError):
        fx.encode(2.0**31)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_encode_refuses_non_finite(value):
    """NaN passes no magnitude bound, and casting it would give the word 2^63."""
    with pytest.raises(fx.RangeError, match="non-finite"):
        fx.encode(np.array([1.0, value]))


def test_truncate_products():
    one = fx.encode_scalar(1.0)
    assert int(fx.truncate(np.array([one * one], dtype=np.uint64), 16)[0]) == one
    half = fx.encode_scalar(0.5)
    assert fx.decode(fx.truncate(np.array([half * half], dtype=np.uint64), 16))[0] == 0.25
    a, b = fx.encode_scalar(-1.5), fx.encode_scalar(2.0)
    prod = np.array([(a * b) & fx.MASK], dtype=np.uint64)
    assert fx.decode(fx.truncate(prod, 16))[0] == -3.0


def test_grid_roundtrip_random():
    rng = np.random.default_rng(7)
    grid = rng.integers(-(2**20), 2**20, size=1000) / 2.0**10
    enc = fx.encode(grid)
    assert np.array_equal(fx.decode(enc), grid)


def test_addition_exact_on_grid():
    rng = np.random.default_rng(8)
    x = rng.integers(-(2**24), 2**24, size=500) / 2.0**12
    y = rng.integers(-(2**24), 2**24, size=500) / 2.0**12
    assert np.array_equal(fx.decode(fx.encode(x) + fx.encode(y)), x + y)


def test_product_truncation_error_bound():
    rng = np.random.default_rng(9)
    x = rng.uniform(-100, 100, size=400)
    y = rng.uniform(-100, 100, size=400)
    ex, ey = fx.encode(x), fx.encode(y)
    got = fx.decode(fx.truncate(ex * ey, 16))
    want = fx.decode(ex) * fx.decode(ey)
    assert np.all(np.abs(got - want) <= 2.0**-16 + 1e-12)


def test_round_half_away_from_zero():
    # 0.5 ulp inputs land away from zero on both sides
    assert fx.encode_scalar(2**-17) == 1
    assert fx.encode_scalar(-(2**-17)) == fx.MASK  # -1 mod 2^64


def test_config_validation():
    for bad in (4, 21):
        with pytest.raises(ValueError):
            fx.FixedPointConfig(frac_bits=bad)
    assert fx.FixedPointConfig().frac_bits == 16
