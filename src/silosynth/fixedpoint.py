"""Fixed-point encoding over the ring of integers modulo 2**64.

Real numbers are mapped to 64-bit ring words carrying ``frac_bits`` fractional
bits: encode(x) = round(x * 2**f) mod 2**64, with round-half-away-from-zero.
The signed interpretation is two's complement, so words >= 2**63 decode as
negative. Addition is exact; a product of two encodings carries 2f fractional
bits and must be truncated (arithmetic right shift of the signed value) to
return to the working scale.

Everything here is integer-only and side-effect free; no floating point ever
enters a value that is later secret shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RING_BITS = 64
MASK = (1 << RING_BITS) - 1
# The enclave's LR trainer holds softmax products at scale 3*frac_bits in a
# 64-bit word.
MAX_FRAC_BITS = 20


class RangeError(ValueError):
    """Input magnitude exceeds the representable fixed-point range."""


@dataclass(frozen=True)
class FixedPointConfig:
    """Ring/precision parameters shared by all parties of a run."""

    frac_bits: int = 16

    def __post_init__(self):
        if not 8 <= self.frac_bits <= MAX_FRAC_BITS:
            raise ValueError(f"frac_bits must be in [8, {MAX_FRAC_BITS}]: the LR trainer's "
                             f"softmax holds products at scale 3*frac_bits; got {self.frac_bits}")


def to_u64(values) -> np.ndarray:
    """Coerce ints / arrays to uint64 ring words (wrapping negatives)."""
    arr = np.asarray(values)
    if arr.dtype == np.uint64:
        return arr
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64).view(np.uint64) if arr.dtype.kind == "i" else arr.astype(np.uint64)
    # Python big ints arrive as object arrays; mask them into range first.
    flat = [int(v) & MASK for v in np.ravel(arr)]
    return np.array(flat, dtype=np.uint64).reshape(arr.shape)


def neg_const(c: int) -> np.uint64:
    """-c as a ring word, for public subtraction via add_public."""
    return np.uint64((-int(c)) & MASK)


def signed(words: np.ndarray) -> np.ndarray:
    """Two's-complement reinterpretation of ring words."""
    arr = np.ascontiguousarray(np.atleast_1d(np.asarray(words, dtype=np.uint64)))
    out = arr.view(np.int64)
    return out.reshape(np.shape(words)) if np.ndim(words) else out.reshape(1)


def encode(x, frac_bits: int = 16) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    # |x| < 2^(63-f-1) / 2^f: one product of in-range values keeps headroom.
    limit = float(1 << (63 - frac_bits - 1)) / float(1 << frac_bits)
    if not np.all(np.isfinite(arr)):
        raise RangeError("non-finite value (nan or inf) cannot be encoded")
    if np.any(np.abs(arr) >= limit):
        raise RangeError(f"value out of encodable range (|x| < {limit})")
    scaled = arr * float(1 << frac_bits)
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return rounded.astype(np.int64).view(np.uint64)


def decode(words, frac_bits: int = 16) -> np.ndarray:
    return signed(to_u64(words)).astype(np.float64) / float(1 << frac_bits)


def truncate(words, shift: int) -> np.ndarray:
    """Arithmetic right shift of the signed interpretation, re-encoded.

    For a product of two scale-f values this is the scale-restoring step;
    rounds toward negative infinity on the 2^-shift grid.
    """
    return (signed(to_u64(words)) >> shift).view(np.uint64)


def encode_scalar(x: float, frac_bits: int = 16) -> int:
    return int(encode(np.full(1, x), frac_bits)[0])
