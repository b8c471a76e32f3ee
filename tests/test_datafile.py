"""The dataset writer's bytes: every cell as ``repr(float)``, whatever the
values repeat, so that run-local and custodian files stay identical; and the
readers' refusals, each naming the file and the offending row."""

import numpy as np
import pytest

from silosynth.datafile import DatasetError, read_dataset, read_thresholds, write_dataset


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


@pytest.mark.parametrize("reader, text, message", [
    (read_dataset, "\n\n", "empty dataset"),
    (read_dataset, "g1,g2\n1.0,2.0\n", "last column must be 'label'"),
    (read_dataset, "g1,label\n1.0,1\nabc,2\n", "row 2: could not convert string to float: 'abc'"),
    (read_dataset, "g1,label\n1.0,1.5\n", "row 1: label '1.5' is not an integer"),
    (read_dataset, "g1,label\n1.0,5\n", "row 1: label 5 outside 0..4"),
    (read_dataset, "g1,label\n1.0,1\ninf,2\n", "row 2: non-finite gene value"),
    (read_thresholds, "", "empty thresholds file"),
    (read_thresholds, "max_wle,min_accuracy\n1.0,0.5\n1.0\n", "row 2: expected 2 metric thresholds"),
    (read_thresholds, "max_wle,min_accuracy\n1.0,high\n", "row 1: could not convert string to float: 'high'"),
], ids=["empty", "no label column", "non-numeric gene", "non-integer label", "label past the domain",
        "non-finite gene", "empty thresholds", "threshold cell count", "non-numeric threshold"])
def test_readers_refuse_malformed_files(tmp_path, reader, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(DatasetError) as info:
        reader(str(path))
    assert str(info.value) == f"{path}: {message}"
