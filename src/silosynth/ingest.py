"""Custodian-side sharing and server-side ingestion.

A custodian splits every cell into three additive components and submits
one component stream per server. Each server's component is its local
additive term, so one ``Party.replicate`` round gives party i the
replicated pair (x_i, x_{i+1}); the components are already uniformly
random, so they need no zero-sharing mask. One round serves every
custodian's rows and thresholds, and the rows come out stacked in upload
order as the combined dataset the pipeline reads.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareMatrix


class IngestionError(ValueError):
    pass


def custodian_components(genes: np.ndarray, labels: np.ndarray,
                         thresholds_row: np.ndarray, frac_bits: int,
                         master_seed: int, custodian_index: int):
    """The three additive component blocks a custodian uploads (one per server)."""
    cells = np.concatenate(
        [fx.encode(genes, frac_bits), fx.to_u64(labels.astype(np.int64)).reshape(-1, 1)],
        axis=1,
    )
    thr = fx.encode(np.asarray(thresholds_row, dtype=np.float64), frac_bits)
    stream = CounterStream(derive_key(master_seed, "custodian-shares", custodian_index))
    comp_data = [stream.next_words(cells.size).reshape(cells.shape) for _ in range(2)]
    comp_data.append(cells - comp_data[0] - comp_data[1])
    comp_thr = [stream.next_words(thr.size) for _ in range(2)]
    comp_thr.append(thr - comp_thr[0] - comp_thr[1])
    return comp_data, comp_thr


def ingest_all(party: Party, data_components: list[np.ndarray],
               thr_components: list[np.ndarray], n_genes: int):
    """Replicate every custodian's uploaded components in one round; returns
    the combined matrix (a batch of one, rows stacked in upload order) and
    the thresholds, (C, 2)."""
    widths = {c.shape[1] - 1 for c in data_components} | {n_genes}
    if len(widths) != 1:
        raise IngestionError(f"custodian schemas disagree on gene count: {sorted(widths)}")
    data, thr = np.concatenate(data_components), np.stack(thr_components)
    with party.protocol("ingest"):
        both = party.replicate(np.concatenate([data.ravel(), thr.ravel()]))
    return (ShareMatrix(both[:data.size].reshape((1,) + data.shape), n_genes),
            both[data.size:].reshape(thr.shape))
