"""Custodian-side sharing and server-side ingestion.

A custodian splits every cell into three additive components and submits
one component stream per server. Each server's component is its local
additive term, so one ``Party.replicate`` round gives party i the
replicated pair (x_i, x_{i+1}); the components are already uniformly
random, so they need no zero-sharing mask. Thresholds ride along the same
way.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareMatrix, stack_shares


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
    """Replicate every custodian's uploaded components; returns matrices (each a
    batch of one) and thresholds."""
    with party.protocol("ingest"):
        matrices = [ShareMatrix(party.replicate(c)[None], n_genes) for c in data_components]
        thresholds = stack_shares([party.replicate(t) for t in thr_components])
    return matrices, thresholds
