import numpy as np
import pytest

from silosynth import fixedpoint as fx
from silosynth.fixedpoint import FixedPointConfig
from silosynth.rng import CounterStream, derive_key
from silosynth.runtime import run_parties
from silosynth.sharing import ShareMatrix, ShareVector, reconstruct, share_values

FP = FixedPointConfig()


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
