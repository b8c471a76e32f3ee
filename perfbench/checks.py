"""Output checks, made outside the timed part with computations apart from the program.

* The opened synthetic matrix must equal ``tests/clear_reference.clear_pipeline``
  (the cleartext mirror of the secure arithmetic) on the same inputs, byte for
  byte; over TCP, the file every custodian writes must equal the file the
  mirror's matrix gives.
* The run must show the properties the method must have under vacuous
  thresholds: publish on loop 1 with the first candidate; shape (combined
  rows, d+1); labels in 0..4; at most four distinct values per gene column,
  each inside that column's real [min, max] within a few units of 2^-frac_bits.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from silosynth import fixedpoint as fx
from silosynth.datafile import DatasetError, read_dataset, write_dataset

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
import clear_reference  # noqa: E402

RANGE_SLACK_UNITS = 4  # allowed excursion outside the real range, in units of 2^-frac_bits


def mirror(inputs, config) -> dict:
    datasets, thresholds = inputs
    return clear_reference.clear_pipeline(datasets, thresholds, config)


def csv_bytes(cells: np.ndarray, n_genes: int, frac_bits: int, path: str) -> bytes:
    """The file run-local and the custodian CLI write for these opened cells."""
    write_dataset(path, fx.decode(cells[:, :n_genes], frac_bits),
                  fx.signed(cells[:, n_genes]).astype(np.int64))
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def check_properties(genes: np.ndarray, labels: np.ndarray, inputs, config) -> list[str]:
    datasets, _ = inputs
    real = np.concatenate([g for g, _ in datasets], axis=0)
    n, d = real.shape
    problems = []
    if genes.shape != (n, d) or labels.shape != (n,):
        return [f"synthetic shape {genes.shape[0]}x{genes.shape[1] + 1}, expected {n}x{d + 1}"]
    if labels.min() < 0 or labels.max() > 4:
        problems.append(f"labels outside 0..4: [{labels.min()}, {labels.max()}]")
    slack = RANGE_SLACK_UNITS * 2.0 ** -config.frac_bits
    for g in range(d):
        values = np.unique(genes[:, g])
        if values.size > 4:
            problems.append(f"gene {g}: {values.size} distinct values, at most 4 bins")
        lo, hi = real[:, g].min() - slack, real[:, g].max() + slack
        if values.min() < lo or values.max() > hi:
            problems.append(f"gene {g}: values [{values.min()}, {values.max()}] outside the "
                            f"real range [{lo}, {hi}]")
    return problems


def check_output(out, inputs, config, expected: dict, scratch: str) -> list[str]:
    """Every problem found with one operation's output; empty means correct."""
    problems = []
    h0 = config.hyperparams[0]
    decisions = out.party_decisions or [(out.publish, out.h_selected, out.loops)]
    for publish, h, loops in decisions:
        if (publish, h, loops) != (True, h0, [(h0, 1)]):
            problems.append(f"decision publish={publish} h={h} loops={loops}; vacuous thresholds "
                            f"must publish on loop 1 with candidate {h0}")
        if (publish, h, loops) != (expected["publish"], expected["h_selected"], expected["loops"]):
            problems.append("decision differs from the cleartext mirror")
    d, f = inputs[0][0][0].shape[1], config.frac_bits
    want = expected["synthetic"]
    if want is None:
        return problems + ["the cleartext mirror did not publish"]
    if out.cells is not None:
        cells = out.cells
        if cells.shape != want.shape or cells.tobytes() != want.tobytes():
            problems.append("synthetic matrix differs from the cleartext mirror")
        genes, labels = fx.decode(cells[:, :d], f), fx.signed(cells[:, d]).astype(np.int64)
    else:
        want_csv = csv_bytes(want, d, f, os.path.join(scratch, "mirror.csv"))
        for c, data in enumerate(out.csv):
            if data != want_csv:
                problems.append(f"custodian {c} received a dataset that differs from the in-process one")
        path = os.path.join(scratch, "received.csv")
        with open(path, "wb") as fh:
            fh.write(out.csv[0])
        try:
            genes, labels = read_dataset(path)
        except DatasetError as exc:
            return problems + [f"custodian 0 received an unreadable dataset: {exc}"]
        finally:
            os.remove(path)
    return problems + check_properties(genes, labels, inputs, config)
