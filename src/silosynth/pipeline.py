"""End-to-end publish loop on the ingested data: K-fold tuning, secret voting, publish.

``run_pipeline`` runs one loop per hyperparameter candidate (in configured
order), all at one noise scale: split by a
seeded public fold plan, bin the training rows and the held-out rows (with
the training cuts), measure noisy marginals, let the generator enclave
sample synthetic rows and re-share their counts and a model trained on
them, and evaluate. The K folds of a loop are independent once
the public plan is fixed, so they run as one batch on a leading fold axis,
padded to the longest fold, and every round serves all of them. The first
loop bins the full data as one more batch beside its folds: the publish
path needs its bins and cuts whichever loop passes, so the run sorts once.
That loop also computes the full data's marginal counts and bin means in
``lockstep`` beside its folds' tail, in rounds the tail spends anyway, so
publishing adds only the noise, the generation, the de-binning and the
reveal. Fold metrics are summed and the unanimous threshold vote compares
the sums against K-scaled thresholds (met-at-equality semantics, exact). The only
value ever opened during tuning is the per-loop vote bit; at publish,
additionally the final de-binned synthetic matrix.

The tuning loop spends no cumulative budget: nothing it computes is ever
published, so the allotted (eps_s, delta_s) reset every loop and the final
claim is a single (eps_s + eps_p, delta_s + delta_p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fixedpoint as fx
from .binning import bin_means_steps, bin_train, inv_bin
from .circuits import bit_extract, lockstep, lockstep_steps, not_packed, program
from .evaluation import evaluate_steps
from .generator import generate_bridge_steps, generate_rows
from .ingest import IngestionError
from .marginals import (
    add_noise_steps,
    calibrate,
    marginal_count_steps,
    measurement_count,
    noisy_marginal_steps,
    scaled_onehots_steps,
)
from .primitives import GAUSS_BOUND, and_all_steps, lt_steps, select_max
from .rng import CounterStream, derive_key
from .runtime import Party
from .sharing import ShareMatrix, ShareVector, concat_shares, stack_shares

PUBLISH_CONTEXT = (0xFFFF, 0xFFFF)  # generator rng context for the publish run

FIRST_PASS = "first-pass"
EXHAUSTIVE = "exhaustive"


@dataclass
class PipelineConfig:
    """Public run parameters, identical at every party (hash-checked)."""

    k_folds: int = 5
    max_loops: int = 4
    hyperparams: tuple[int, ...] = (10, 15, 25, 30)
    eps_s: float = 5.0
    delta_s: float = 1e-5
    eps_p: float = 1.0
    delta_p: float = 1e-6
    seed: int = 42
    frac_bits: int = 16
    n_custodians: int = 2
    mode: str = FIRST_PASS
    synthetic_rows: int = 0          # 0: same length as the combined data
    lr_epochs: int = 150
    lr_rate: float = 0.05

    def validate(self):
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")
        if self.max_loops < 1:
            raise ValueError("max_loops must be >= 1")
        if not self.hyperparams:
            raise ValueError("hyperparams must be non-empty")
        for key, value in (("hyperparams", min(self.hyperparams)), ("synthetic_rows", self.synthetic_rows),
                           ("lr_epochs", self.lr_epochs)):
            if value < 0:
                raise ValueError(f"{key} must be >= 0")
        for key in ("eps_s", "delta_s", "eps_p", "delta_p", "lr_rate"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number, got {getattr(self, key)!r}")
        if self.eps_s <= 0 or not 0 < self.delta_s < 1:
            raise ValueError("synthesis privacy budget must be positive")
        if self.eps_p < 0 or not 0 <= self.delta_p < 1:
            raise ValueError("preprocessing privacy budget must be non-negative")
        if not 1 <= self.n_custodians <= 256:
            raise ValueError(f"n_custodians = {self.n_custodians} is outside 1..256: a custodian's hello "
                             "names its index in one byte")
        if self.mode not in (FIRST_PASS, EXHAUSTIVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        fx.FixedPointConfig(self.frac_bits)


@dataclass
class ThresholdSet:
    """Per-custodian secret quality bars: column 0 max wle, column 1 min accuracy."""

    shares: ShareVector  # (n_custodians, 2)


@dataclass
class LoopRecord:
    hyperparam: int
    vote_bit: int


def fold_plan(master_seed: int, loop_index: int, n_rows: int, k: int):
    """Seeded public shuffle into K contiguous test blocks (sizes differ <= 1)."""
    gen = CounterStream(derive_key(master_seed, "fold-plan", loop_index)).generator_at()
    perm = gen.permutation(n_rows)
    folds = []
    for j in range(k):
        lo, hi = j * n_rows // k, (j + 1) * n_rows // k
        test = perm[lo:hi]
        train = np.concatenate([perm[:lo], perm[hi:]])
        folds.append((train, test))
    return folds


def _fold_rows(matrix: ShareMatrix, index_sets) -> ShareMatrix:
    """Gather each fold's rows of a single dataset, padded to the longest fold."""
    rows = np.array([len(idx) for idx in index_sets])
    width = int(rows.max())
    gather = np.zeros((len(index_sets), width), dtype=np.int64)   # padding repeats row 0
    for j, idx in enumerate(index_sets):
        gather[j, : len(idx)] = idx
    return ShareMatrix(matrix.data[0][gather], matrix.n_genes, rows)


def check_fold_plan(n_rows: int, k: int):
    """Refuse a K-fold plan of n_rows rows that leaves a fold with no test row
    or fewer than 2 training rows (binning needs 2); public shapes only."""
    fewest_test, most_test = n_rows // k, -(-n_rows // k)
    if fewest_test < 1 or n_rows - most_test < 2:
        raise IngestionError(
            f"{k} folds of {n_rows} rows give a fold {fewest_test}-{most_test} test and "
            f"{n_rows - most_test}-{n_rows - fewest_test} training rows; every fold needs "
            f"at least 1 test row and 2 training rows")


def preflight(rows: list[int], genes: list[int], config: PipelineConfig):
    """Refuse a run from the custodians' public row and gene counts before the
    protocol starts: the custodians must agree on a gene count of at least 1,
    the fold plan must hold (``check_fold_plan``), the combined row count
    must stay below 2^frac_bits, because bin means and accuracy divide by a row
    count times 2^frac_bits and the division needs denominators below
    2^(2 frac_bits), and the noise scale must fit the noisy marginals' one
    truncation (``noisy_marginals``): n*2^(2 frac_bits) +
    6*2^frac_bits*encode(sigma_q) below 2^63."""
    if len(set(genes)) != 1:
        raise IngestionError(f"custodian datasets disagree on gene count: {sorted(set(genes))}")
    if genes[0] == 0:
        raise IngestionError("the datasets have no gene column: at least one is needed beside the label")
    n, f = sum(rows), config.frac_bits
    check_fold_plan(n, config.k_folds)
    if n >= 1 << f:
        raise IngestionError(
            f"{n} combined rows reach 2^frac_bits = {1 << f}: bin means and accuracy divide by a "
            f"row count times 2^frac_bits, which must stay below 2^(2 frac_bits), so at most "
            f"{(1 << f) - 1} rows fit")
    sigma_q = calibrate(config.eps_s, config.delta_s, measurement_count(genes[0]))
    room = ((1 << 63) - 1 - (n << 2 * f)) // (GAUSS_BOUND << f)    # the largest encode(sigma_q) that fits
    try:
        fits = fx.encode_scalar(sigma_q, f) <= room
    except fx.RangeError:
        fits = False
    if not fits:
        raise IngestionError(
            f"eps_s = {config.eps_s:g} and delta_s = {config.delta_s:g} give a noise scale "
            f"sigma_q = {sigma_q:.6g} per marginal, past the ring: the noisy marginals hold "
            f"n*2^(2 frac_bits) + {GAUSS_BOUND}*2^frac_bits*encode(sigma_q), which must stay below 2^63, so "
            f"at {n} rows and frac_bits = {f} sigma_q must be at most {room / (1 << f):.6g}")


def kfold_split(matrix: ShareMatrix, plan, extra):
    """All K (train, test) splits of a single dataset as two padded fold
    batches; the row index sets in ``extra`` follow the K training folds."""
    check_fold_plan(matrix.n_rows, len(plan))
    return (_fold_rows(matrix, [t for t, _ in plan] + list(extra)),
            _fold_rows(matrix, [t for _, t in plan]))


def secret_vote_steps(party: Party, wle_sum: ShareVector, acc_sum: ShareVector,
                      thresholds: ThresholdSet, k_folds: int) -> int:
    """Unanimous vote on fold-summed metrics vs K-scaled secret thresholds.

    A custodian's vote survives only if both metrics meet its bars, where
    "meets" includes equality (workload error at most the cap, accuracy at
    least the floor). Individual thresholds, metrics and the tally stay
    secret; only the final unanimity bit is opened.
    """
    n_cust = thresholds.shares.shape[0]
    with party.protocol("vote"):
        scaled = thresholds.shares.scale_by(np.uint64(k_folds))
        wle, acc = (m.map(np.broadcast_to, (n_cust,)) for m in (wle_sum, acc_sum))
        # one comparison for both bars: cap strictly below the metric, metric strictly below the floor
        fail = yield from lt_steps(party, stack_shares([scaled[:, 0], acc]), stack_shares([wle, scaled[:, 1]]))
        # unanimous when no custodian fails a bar: the AND of the negated fail bits
        unanimous = bit_extract((yield from and_all_steps(party, not_packed(party, fail).reshape(1, -1))), 0)
        bit, = yield [party.open_message(unanimous, "vote", xor=True)]
    return int(bit[0])


secret_vote = program(secret_vote_steps)


def _loop_steps(party: Party, binned: ShareMatrix, test: ShareMatrix, loop_index: int, h: int,
                config: PipelineConfig, sigma_q: float, thresholds: ThresholdSet):
    """One tuning loop's K binned training folds and held-out folds from the
    noisy marginals to the vote, as a program: the vote bit and the secret
    fold-summed workload error. Fold averaging folds into the vote: sums
    compare against K-scaled thresholds, which keeps met-at-equality
    semantics exact."""
    k = binned.folds
    with party.protocol("noisy_marg"):
        onehots = yield from scaled_onehots_steps(party, binned)
        counts, ms = yield from noisy_marginal_steps(party, onehots, sigma_q)
    synth_counts, weights = yield from generate_bridge_steps(party, ms, binned.rows, h, config.seed,
                                                             [(loop_index, j) for j in range(k)],
                                                             config.lr_epochs, config.lr_rate)
    wle, accuracy = yield from evaluate_steps(party, counts, synth_counts, binned.rows, weights, test)
    wle_sum = wle.sum(keepdims=True)
    bit = yield from secret_vote_steps(party, wle_sum, accuracy.sum(keepdims=True), thresholds, config.k_folds)
    return bit, wle_sum


def _full_data_steps(party: Party, binned: ShareMatrix, originals: ShareVector, cuts: ShareVector):
    """What the publish path reads of the full data, binned with ``cuts``,
    as a program: its exact marginal counts and its bin means, from one
    build of its one-hots, the counts and the bin sums in one round."""
    with party.protocol("noisy_marg"):
        onehots = yield from scaled_onehots_steps(party, binned)
        return (yield from lockstep_steps(party, [marginal_count_steps(party, onehots),
                                                  bin_means_steps(party, onehots[0], originals, cuts)], [None, "bin"]))


def run_fold(party: Party, matrix: ShareMatrix, plan, loop_index: int, h: int, config: PipelineConfig,
             sigma_q: float, thresholds: ThresholdSet) -> tuple[int, ShareVector, tuple | None]:
    """One tuning loop, every fold in one round schedule: the vote bit, the
    secret fold-summed workload error, and on the first loop the full
    data's marginal counts and bin means for the publish path (None on
    later loops).

    The first loop bins the full data beside its folds, from the same sort,
    and runs the full data's one-hots, counts and bin means (59 rounds) in
    ``lockstep`` beside its folds' tail from their one-hots to the vote (59,
    and the enclave's reveal, a round that counts once the bin means send
    in it). A run that never publishes pays their bytes."""
    k = len(plan)
    extra = [np.arange(matrix.n_rows)] if loop_index == 0 else []
    train, test = kfold_split(matrix, plan, extra)
    binned, cuts, binned_test = bin_train(party, train, test)
    loop = _loop_steps(party, binned.batches(slice(k)), binned_test, loop_index, h, config, sigma_q, thresholds)
    if not extra:
        return party.run(loop) + (None,)
    (bit, wle_sum), full = lockstep(party, [loop, _full_data_steps(party, binned.batches(slice(k, None)),
                                                                    matrix.genes(), cuts[k:])], [None, None])
    return bit, wle_sum, full


def _select_lowest(party: Party, candidates: list[tuple[int, ShareVector]]) -> int:
    """Oblivious argmin of secret fold sums among (publicly) passing loops:
    the maximum of the negated sums keeps the earliest loop on ties."""
    loops, sums = zip(*candidates)
    with party.protocol("h_select"):
        best = select_max(party, -concat_shares(list(sums)), loops)
        return int(party.open(best, "h-select"))


def publish_path(party: Party, counts: ShareVector, means: ShareVector, n_rows: int,
                 h_selected: int, config: PipelineConfig, sigma_q: float) -> np.ndarray:
    """Generate from the full data's marginal ``counts`` at the loops' noise
    scale ``sigma_q``, de-bin with its bin ``means`` (both from the first
    loop, ``run_fold``), and reveal the synthetic rows: opened ring words,
    shape (rows, d+1). 15 rounds: the noise 12, the generation, de-binning
    and reveal 1 each."""
    with party.protocol("noisy_marg"):
        ms = party.run(add_noise_steps(party, counts, sigma_q))
    n_out = config.synthetic_rows or n_rows
    onehot, labels = generate_rows(party, ms, n_out, h_selected, config.seed, PUBLISH_CONTEXT)
    debinned = concat_shares([inv_bin(party, onehot, means), labels[..., None]], axis=2)
    with party.protocol("publish"):
        return party.open(debinned[0], "publish")


@dataclass
class RunResult:
    publish: bool
    h_selected: int | None
    loops: list[LoopRecord]
    synthetic: np.ndarray | None   # opened ring words (rows, d+1) or None
    ledger: dict
    opening_log: list
    reveal_log: list


def run_pipeline(party: Party, combined: ShareMatrix,
                 thresholds: ThresholdSet, config: PipelineConfig) -> RunResult:
    """Algorithm body executed identically by each party on the combined
    matrix ``ingest_all`` delivers: a tuning loop per hyperparameter
    candidate, in order, until one passes (first-pass mode) or all have run
    (exhaustive mode, which keeps the passer of lowest workload error), then
    the publish path from the first loop's bins if any loop passed."""
    sigma_q = calibrate(config.eps_s, config.delta_s, measurement_count(combined.n_genes))
    loops, passed, h_selected = [], [], None   # passed: (loop idx, secret wle sum)
    for loop_index, h in enumerate(config.hyperparams[:config.max_loops]):
        plan = fold_plan(config.seed, loop_index, combined.n_rows, config.k_folds)
        bit, wle_sum, full = run_fold(party, combined, plan, loop_index, h, config, sigma_q, thresholds)
        if loop_index == 0:
            counts, means = full
        loops.append(LoopRecord(h, bit))
        if bit == 1:
            if config.mode == FIRST_PASS:
                h_selected = h
                break
            passed.append((loop_index, wle_sum))
    if passed:
        h_selected = config.hyperparams[_select_lowest(party, passed)]
    synthetic = None
    if h_selected is not None:
        synthetic = publish_path(party, counts, means, combined.n_rows, h_selected, config, sigma_q)
    return RunResult(
        publish=h_selected is not None,
        h_selected=h_selected,
        loops=loops,
        synthetic=synthetic,
        ledger=party.ledger.snapshot(),
        opening_log=list(party.opening_log),
        reveal_log=list(party.reveal_log),
    )
