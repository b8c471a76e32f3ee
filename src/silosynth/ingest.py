"""Custodian-side sharing and server-side ingestion.

A custodian splits every cell into three additive components and submits
one component stream per server; the servers then run one replication
round (each forwards its component to its predecessor) so that party i
ends up holding the replicated pair (x_i, x_{i+1}). Thresholds ride along
the same way.
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint as fx
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, stack_shares


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


def replicate_component(party: Party, component: np.ndarray) -> ShareVector:
    """One replication round: forward own component, pair with the successor's."""
    party.send_words(party.prev_pid, component)
    nxt = party.recv_words(party.next_pid).reshape(component.shape)
    return ShareVector(component, nxt)


def ingest_all(party: Party, data_components: list[np.ndarray],
               thr_components: list[np.ndarray], n_genes: int):
    """Replicate every custodian's uploaded components; returns matrices (each a
    batch of one) and thresholds."""
    with party.protocol("ingest"):
        matrices = [ShareMatrix(replicate_component(party, c)[None], n_genes) for c in data_components]
        thresholds = stack_shares([replicate_component(party, t) for t in thr_components])
    return matrices, thresholds
