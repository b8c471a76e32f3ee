"""Replicated 3-party secret sharing over Z_{2^64}.

A secret x is split as x = x1 + x2 + x3 mod 2^64 and party S_i holds the
component pair (x_i, x_{i+1}). ShareVector stores one party's pair for a
whole ndarray of secrets; all linear operations are local. Multiplication
and everything interactive lives in circuits.py and primitives.py, since it
needs a party context and transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import to_u64


@dataclass
class ShareVector:
    """One party's replicated share of an array of ring values.

    ``a`` is the party's own component x_i, ``b`` the next component x_{i+1}.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = to_u64(self.a)
        self.b = to_u64(self.b)
        if self.a.shape != self.b.shape:
            raise ValueError("component shape mismatch")

    @property
    def shape(self):
        return self.a.shape

    @property
    def size(self):
        return self.a.size

    def __add__(self, other: "ShareVector") -> "ShareVector":
        return ShareVector(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ShareVector") -> "ShareVector":
        return ShareVector(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ShareVector":
        zero = np.uint64(0)
        return ShareVector(zero - self.a, zero - self.b)

    def __xor__(self, other: "ShareVector") -> "ShareVector":
        return ShareVector(self.a ^ other.a, self.b ^ other.b)

    def __lshift__(self, k) -> "ShareVector":
        """Logical shift of every packed word by a public int or array (local)."""
        return ShareVector(self.a << k, self.b << k)

    def __rshift__(self, k) -> "ShareVector":
        return ShareVector(self.a >> k, self.b >> k)

    def scale_by(self, c) -> "ShareVector":
        """Multiply by a public ring constant (local)."""
        c = to_u64(c)
        return ShareVector(self.a * c, self.b * c)

    def __getitem__(self, idx) -> "ShareVector":
        return ShareVector(self.a[idx], self.b[idx])

    def __setitem__(self, idx, value: "ShareVector"):
        self.a[idx] = value.a
        self.b[idx] = value.b

    def map(self, fn, *args, **kwargs) -> "ShareVector":
        """Apply a shape function (reshape, moveaxis, ...) to both components."""
        return ShareVector(fn(self.a, *args, **kwargs), fn(self.b, *args, **kwargs))

    def reshape(self, *shape) -> "ShareVector":
        return ShareVector(self.a.reshape(*shape), self.b.reshape(*shape))

    def sum(self, axis=None, keepdims=False) -> "ShareVector":
        return ShareVector(self.a.sum(axis=axis, dtype=np.uint64, keepdims=keepdims),
                           self.b.sum(axis=axis, dtype=np.uint64, keepdims=keepdims))

    def copy(self) -> "ShareVector":
        return ShareVector(self.a.copy(), self.b.copy())


def concat_shares(parts: list[ShareVector], axis: int = 0) -> ShareVector:
    return ShareVector(
        np.concatenate([p.a for p in parts], axis=axis),
        np.concatenate([p.b for p in parts], axis=axis),
    )


def stack_shares(parts: list[ShareVector], axis: int = 0) -> ShareVector:
    return ShareVector(
        np.stack([p.a for p in parts], axis=axis),
        np.stack([p.b for p in parts], axis=axis),
    )


@dataclass
class ShareMatrix:
    """Secret-shared datasets on a leading fold axis: (K, N, n_genes + 1).

    Rows are samples and the last column is the label. Fold k holds rows[k]
    data rows (public); the rest pad it to the common length N and are
    ignored by every consumer through ``mask``. A single dataset is a batch
    of one.
    """

    data: ShareVector
    n_genes: int
    rows: np.ndarray | None = None   # (K,) public row counts; None: no padding

    def __post_init__(self):
        if self.data.a.ndim != 3:
            raise ValueError("ShareMatrix data must be (folds, rows, columns)")
        if self.data.shape[2] != self.n_genes + 1:
            raise ValueError("column count does not match n_genes + 1")
        k, n = self.data.shape[:2]
        if self.rows is None:
            self.rows = np.full(k, n)
            return
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.rows.shape != (k,) or self.rows.max(initial=0) > n or self.rows.min(initial=0) < 0:
            raise ValueError("row counts must give 0..N data rows per fold")

    @property
    def folds(self) -> int:
        return self.data.shape[0]

    @property
    def n_rows(self) -> int:
        """Padded rows per fold."""
        return self.data.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """(K, N) public 0/1 words: 1 on data rows, 0 on padding."""
        return (np.arange(self.n_rows) < self.rows[:, None]).astype(np.uint64)

    def genes(self) -> ShareVector:
        return self.data[:, :, : self.n_genes]

    def labels(self) -> ShareVector:
        return self.data[:, :, self.n_genes]

    def batches(self, idx: slice) -> "ShareMatrix":
        """The batches ``idx`` selects, padded only to the longest of them."""
        rows = self.rows[idx]
        return ShareMatrix(self.data[idx, : rows.max(initial=0)], self.n_genes, rows)

    def with_columns(self, genes: ShareVector) -> "ShareMatrix":
        """Same folds and labels with new gene columns."""
        return ShareMatrix(concat_shares([genes, self.labels()[..., None]], axis=2),
                           self.n_genes, self.rows)
