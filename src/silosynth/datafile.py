"""Dataset and threshold file handling.

Datasets are comma-separated text with a header row: d gene columns of
decimal reals followed by a final ``label`` column of integers 0-4.
Thresholds files carry a ``max_wle,min_accuracy`` header and one row per
custodian. Written floats use shortest round-trip formatting.
"""

from __future__ import annotations

import numpy as np

LABEL_COLUMN = "label"
LABEL_RANGE = range(5)
THRESHOLD_FIELDS = ("max_wle", "min_accuracy")


class DatasetError(ValueError):
    """Malformed input file; message carries the offending location."""


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty dataset")
    header = [h.strip() for h in lines[0].split(",")]
    if header[-1] != LABEL_COLUMN:
        raise DatasetError(f"{path}: last column must be {LABEL_COLUMN!r}")
    d = len(header) - 1
    genes = np.zeros((len(lines) - 1, d))
    labels = np.zeros(len(lines) - 1, dtype=np.int64)
    for row, line in enumerate(lines[1:], start=1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != d + 1:
            raise DatasetError(f"{path}: row {row} has {len(parts)} cells, expected {d + 1}")
        try:
            genes[row - 1] = [float(p) for p in parts[:d]]
        except ValueError as exc:
            raise DatasetError(f"{path}: row {row}: {exc}") from None
        try:
            label = int(parts[d])
        except ValueError:
            raise DatasetError(f"{path}: row {row}: label {parts[d]!r} is not an integer") from None
        if label not in LABEL_RANGE:
            raise DatasetError(f"{path}: row {row}: label {label} outside 0..4")
        labels[row - 1] = label
    if not np.all(np.isfinite(genes)):
        bad = int(np.argwhere(~np.isfinite(genes))[0][0]) + 1
        raise DatasetError(f"{path}: row {bad}: non-finite gene value")
    return genes, labels


def write_dataset(path: str, genes: np.ndarray, labels: np.ndarray):
    # one repr per distinct value (a synthetic gene has 4), keyed by bits: -0.0 is not 0.0
    words, index = np.unique(np.ascontiguousarray(genes, dtype=np.float64).view(np.uint64), return_inverse=True)
    text = np.array([repr(float(v)) for v in words.view(np.float64)], dtype=object)
    with open(path, "w") as fh:
        fh.write(",".join([f"g{i + 1}" for i in range(genes.shape[1])] + [LABEL_COLUMN]) + "\n")
        fh.writelines(",".join(row) + f",{int(label)}\n"
                      for row, label in zip(text[index.reshape(genes.shape)].tolist(), labels))


def read_thresholds(path: str) -> np.ndarray:
    """Rows of (max_wle, min_accuracy), one per custodian."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty thresholds file")
    header = [h.strip() for h in lines[0].split(",")]
    if tuple(header) != THRESHOLD_FIELDS:
        missing = [f for f in THRESHOLD_FIELDS if f not in header]
        raise DatasetError(f"{path}: thresholds header must be {','.join(THRESHOLD_FIELDS)}"
                           + (f" (missing {missing[0]!r})" if missing else ""))
    rows = []
    for row, line in enumerate(lines[1:], start=1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise DatasetError(f"{path}: row {row}: expected 2 metric thresholds")
        try:
            rows.append([float(parts[0]), float(parts[1])])
        except ValueError as exc:
            raise DatasetError(f"{path}: row {row}: {exc}") from None
    return np.array(rows)


def write_thresholds(path: str, rows: np.ndarray):
    with open(path, "w") as fh:
        fh.write(",".join(THRESHOLD_FIELDS) + "\n")
        for row in np.atleast_2d(rows):
            fh.write(f"{repr(float(row[0]))},{repr(float(row[1]))}\n")
