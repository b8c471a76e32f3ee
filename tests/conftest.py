import numpy as np
import pytest

from silosynth import fixedpoint as fx
from silosynth.circuits import trunc_shares
from silosynth.fixedpoint import FixedPointConfig
from silosynth.marginals import GENE_BITS, GENE_DOMAIN, LABEL_BITS, scaled_onehots_steps
from silosynth.primitives import sort_columns
from silosynth.rng import CounterStream, derive_key
from silosynth.runtime import run_parties
from silosynth.sharing import ShareMatrix, ShareVector, concat_shares

FP = FixedPointConfig()


class IntegrityError(RuntimeError):
    """Overlapping replicated components disagree."""


def share_values(values, stream: CounterStream) -> list[ShareVector]:
    """Split cleartext values into the three parties' replicated shares."""
    x = fx.to_u64(values)
    x1 = stream.next_words(x.size).reshape(x.shape)
    x2 = stream.next_words(x.size).reshape(x.shape)
    x3 = x - x1 - x2
    return [
        ShareVector(x1.copy(), x2.copy()),
        ShareVector(x2.copy(), x3.copy()),
        ShareVector(x3.copy(), x1.copy()),
    ]


def reconstruct(shares: list[ShareVector]) -> np.ndarray:
    """Combine all three parties' pairs, checking the replication overlap."""
    s1, s2, s3 = shares
    for left, right, who in ((s1.b, s2.a, "S1/S2"), (s2.b, s3.a, "S2/S3"), (s3.b, s1.a, "S3/S1")):
        if not np.array_equal(left, right):
            raise IntegrityError(f"replicated components disagree between {who}")
    return s1.a + s2.a + s3.a


def indicator(party, x: ShareVector, m: int) -> ShareVector:
    """The m indicator bits of x on the domain {0..m-1}, (m, ...): the
    scaled one-hots of x as one gene column (m = 4, beside zero labels) or
    as the labels (m = 5), cell by cell truncated once by their scale's
    exponent v."""
    cells = x.reshape(1, -1, 1)
    if m == GENE_DOMAIN:
        zeros = party.const_share(np.zeros(cells.shape, np.uint64))
        matrix = ShareMatrix(concat_shares([cells, zeros], axis=2), 1)
        onehot, v = party.run(scaled_onehots_steps(party, matrix))[0], GENE_BITS
    else:
        onehot, v = party.run(scaled_onehots_steps(party, ShareMatrix(cells, 0)))[1], LABEL_BITS
    return trunc_shares(party, onehot, v).map(lambda w: np.moveaxis(w.reshape(x.shape + (m,)), -1, 0))


def sort_rows(party, x: ShareVector, rows=None) -> ShareVector:
    """``sort_columns`` of the first ``rows`` rows (all of them by default) of
    every batch of x (..., N, d), every one of them read."""
    n = x.shape[-2]
    rows = np.broadcast_to(n if rows is None else rows, x.shape[:-2])
    return sort_columns(party, x, rows, np.arange(n) < rows[..., None])


def no_rows(matrix: ShareMatrix) -> ShareMatrix:
    """A held-out matrix of no rows beside every batch of ``matrix``, for
    ``bin_train`` runs that bin nothing with the cuts."""
    return ShareMatrix(matrix.data[:, :0], matrix.n_genes)


def run3(body, seed=77, timeout=300.0):
    return run_parties(body, master_seed=seed, fp=FP, timeout=timeout)


def shared(values, tag, namespace="t"):
    return share_values(fx.to_u64(values), CounterStream(derive_key(9000, namespace, tag)))


def shared_matrix(genes, labels, tag, namespace="tm"):
    """Share a cleartext dataset as a batch of one: gene columns encoded
    fixed-point or integer bins."""
    cells = np.concatenate([fx.to_u64(genes), fx.to_u64(labels).reshape(-1, 1)], axis=1)
    parts = share_values(cells[None], CounterStream(derive_key(9000, namespace, tag)))
    return [ShareMatrix(p, genes.shape[1]) for p in parts]


def shared_xor(values, tag, namespace="tx"):
    """XOR-replicated sharing of 64-bit words: party i holds (x_i, x_(i+1))."""
    x = fx.to_u64(values)
    stream = CounterStream(derive_key(9000, namespace, tag))
    x1 = stream.next_words(x.size).reshape(x.shape)
    x2 = stream.next_words(x.size).reshape(x.shape)
    x3 = x ^ x1 ^ x2
    return [ShareVector(x1, x2), ShareVector(x2, x3), ShareVector(x3, x1)]


def reconstruct_xor(shares):
    """Combine all three parties' XOR-shared pairs, checking the replication overlap."""
    s1, s2, s3 = shares
    assert np.array_equal(s1.b, s2.a) and np.array_equal(s2.b, s3.a) and np.array_equal(s3.b, s1.a)
    return s1.a ^ s2.a ^ s3.a


def open_matrix(results):
    """The single dataset of batch-of-one results."""
    return reconstruct([r.data for r in results])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
