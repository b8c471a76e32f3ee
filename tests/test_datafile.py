"""The dataset writer's bytes: every cell as ``repr(float)``, whatever the
values repeat, so that run-local and custodian files stay identical."""

import numpy as np
import pytest

from silosynth.datafile import read_dataset, write_dataset


def per_cell(genes, labels) -> str:
    """The file the writer must produce, formatted cell by cell."""
    lines = [",".join([f"g{i + 1}" for i in range(genes.shape[1])] + ["label"])]
    lines += [",".join([repr(float(v)) for v in row] + [str(int(label))]) for row, label in zip(genes, labels)]
    return "\n".join(lines) + "\n"


def _cases():
    rng = np.random.default_rng(3)
    four = rng.normal(size=4)
    edges = np.array([0.0, -0.0, 2.0**-16, -(2.0**-16), 1e16, -1e16, 1.5, 5e-324, np.inf, -np.inf, np.nan])
    yield "random", rng.normal(0, 3, size=(50, 7))
    yield "repeated", four[rng.integers(0, 4, size=(200, 10))]
    yield "edges", edges[rng.integers(0, edges.size, size=(40, 5))]
    yield "signed zeros", np.array([[0.0, -0.0], [-0.0, 0.0]])
    yield "float32", rng.normal(size=(6, 3)).astype(np.float32)
    yield "zero rows", np.zeros((0, 4))


@pytest.mark.parametrize("name, genes", list(_cases()), ids=[c[0] for c in _cases()])
def test_write_dataset_bytes_equal_per_cell_repr(tmp_path, name, genes):
    labels = np.arange(genes.shape[0]) % 5
    path = tmp_path / "out.csv"
    write_dataset(str(path), genes, labels)
    assert path.read_text() == per_cell(genes, labels)


def test_signed_zero_survives_a_round_trip(tmp_path):
    genes = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]])
    path = tmp_path / "zeros.csv"
    write_dataset(str(path), genes, np.zeros(2, dtype=np.int64))
    back, _ = read_dataset(str(path))
    assert np.array_equal(np.signbit(back), np.signbit(genes))
