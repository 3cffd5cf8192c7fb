"""The limiting block-refinement process on the partition lattice.

Exposes four independent routes to the coefficient vector a_t (the law of
the refinement process started from the one-block partition):

* ``coefficients_semigroup`` - matrix exponential of the generator by
  uniformization (works for every model);
* ``coefficients_recursion`` - closed exponential mixture from the exit
  rates and recursively defined mixture weights (generic models only);
* ``coefficients_single_crossover`` - product closed form on interval
  partitions (single-crossover models only);
* ``partition_frequencies`` - Monte Carlo over the event-driven simulator.

Plus the discrete-time transition matrix and its power iteration.

The generator, the discrete matrix and ``PsiTheta`` run on mask states
(see :mod:`.partitions`) with rates from ``RecombinationDistribution``'s
split table, refinement step ``children`` and ``exit_rate``; ``PsiTheta``
takes each subset's reachable states from its merge tables (one per split).
``Partition`` objects are converted at the edge only: by ``PartitionIndex``,
``exit_rate`` and ``PsiTheta.psi``/``theta``/``ground_table``.
``PartitionMatrix`` stores sorted COO arrays; the semigroup and discrete
routes step row vectors through them with one gather and one ``np.bincount``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import DomainError, NonGenericRatesError, check_count, check_time
from .partitions import (
    Partition,
    PartitionIndex,
    count_label_rows,
    mask_state,
    shared_index,
)
from .rates import RecombinationDistribution

#: uniformization truncation: stop once the Poisson weights used cover
#: all but this much probability (or rounding stops the sum from moving).
_POISSON_TAIL = 1e-15
#: largest lambda*t handled in a single uniformization pass; larger
#: horizons are split into equal subintervals applied sequentially.
_MAX_LAMBDA_T = 500.0
#: relative gap under which two exit rates count as colliding (the
#: exponential-mixture form requires pairwise distinct rates).
_GENERIC_RTOL = 1e-9
#: rows of the identity per uniformization pass in ``transition_semigroup``
#: are chosen so that a pass gathers about this many stored entries.
_BLOCK_ENTRIES = 1 << 18


class PartitionMatrix:
    """Sparse real matrix indexed by partitions on both axes.

    Stored as COO arrays sorted by row: ``rows`` and ``cols`` (int64) and
    ``data`` (float64); entries not stored are zero.  The constructor takes
    a dense array and stores its nonzero entries and its whole diagonal;
    ``values`` is a dense read-only copy built on each access, for callers
    at the API edge.
    """

    __slots__ = ("index", "rows", "cols", "data")

    def __init__(self, index: PartitionIndex, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(index), len(index)):
            raise DomainError(
                f"matrix shape {values.shape} does not match index size {len(index)}"
            )
        self._store(index, *_dense_entries(values))

    @classmethod
    def _from_entries(cls, index: PartitionIndex, rows, cols, data) -> "PartitionMatrix":
        """The matrix of entries listed by row (no (row, col) twice)."""
        m = cls.__new__(cls)
        m._store(index, rows, cols, data)
        return m

    def _store(self, index: PartitionIndex, rows, cols, data) -> None:
        self.index = index
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def values(self) -> np.ndarray:
        size = len(self.index)
        dense = np.zeros((size, size))
        dense[self.rows, self.cols] = self.data
        dense.flags.writeable = False
        return dense

    def _span(self, a: Partition) -> slice:
        i = self.index.index_of(a)
        lo, hi = np.searchsorted(self.rows, (i, i + 1))
        return slice(lo, hi)

    def entry(self, a: Partition, b: Partition) -> float:
        span = self._span(a)
        hit = np.flatnonzero(self.cols[span] == self.index.index_of(b))
        return float(self.data[span][hit[0]]) if hit.size else 0.0

    def row(self, a: Partition) -> np.ndarray:
        span = self._span(a)
        out = np.zeros(len(self.index))
        out[self.cols[span]] = self.data[span]
        return out

    def __repr__(self) -> str:
        return (
            f"PartitionMatrix(n={len(self.index.ground)}, size={len(self.index)}, "
            f"nnz={len(self.data)})"
        )


def _dense_entries(values: np.ndarray, lo: int = 0):
    """(rows, cols, data) of the nonzero and diagonal entries of the dense
    rows lo, lo + 1, ... of a matrix, by row."""
    keep = values != 0.0
    keep[np.arange(len(values)), np.arange(lo, lo + len(values))] = True
    rows, cols = np.nonzero(keep)
    return rows + lo, cols, values[rows, cols]


class CoefficientVector:
    """Probabilities a_t(A) aligned with a PartitionIndex."""

    __slots__ = ("index", "values")

    def __init__(self, index: PartitionIndex, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(index),):
            raise DomainError(
                f"vector length {values.shape} does not match index size {len(index)}"
            )
        self.index = index
        self.values = values

    def value(self, a: Partition) -> float:
        return float(self.values[self.index.index_of(a)])

    __getitem__ = value

    def items(self) -> Iterator[tuple[Partition, float]]:
        for p, v in zip(self.index.partitions, self.values):
            yield p, float(v)

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self) -> str:
        return f"CoefficientVector(size={len(self.index)}, total={self.total():.12g})"


# --------------------------------------------------------------------------
# generator and semigroup
# --------------------------------------------------------------------------


def exit_rate(d: RecombinationDistribution, a: Partition) -> float:
    """Total rate at which some block of `a` splits into two."""
    if a.ground != d.ground:
        raise DomainError(f"{a.to_text()} is not a partition of {d.ground}")
    return d.exit_rate(tuple(a.as_masks()))


def build_generator(d: RecombinationDistribution, index: PartitionIndex) -> PartitionMatrix:
    """Markov generator of the refinement process on the full lattice.

    From state A, each block independently splits into an unordered pair
    at its two-block marginal rate; the diagonal balances each row.
    Nonzero off-diagonals always point from coarser to strictly finer
    partitions, so the matrix is triangular in index order.  Every row
    stores its diagonal entry, -0.0 on states that never split.
    """
    if index.ground != d.ground:
        raise DomainError(f"index ground {index.ground} does not match {d.ground}")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, state in enumerate(index.states):
        total = 0.0
        for child, rate in d.children(state):
            rows.append(i)
            cols.append(index.position[child])
            data.append(rate)
            total += rate
        rows.append(i)
        cols.append(i)
        data.append(-total)
    return PartitionMatrix._from_entries(index, rows, cols, data)


def _poisson_weights(lt: float) -> list[float]:
    """Poisson(lt) weights e^{-lt} lt^k / k! for k = 0, 1, ... up to truncation.

    Stops once the weights cover all but 1e-15 of the mass, or, past the
    mode (k > lt), at the first weight that no longer changes the rounded
    running sum: for many lt above about 11 rounding holds the sum just
    under 1 - 1e-15 forever, and every later weight is smaller still.
    """
    weight = math.exp(-lt)
    cum = weight
    weights = [weight]
    k = 0
    while cum < 1.0 - _POISSON_TAIL:
        k += 1
        weight *= lt / k
        if k > lt and cum + weight == cum:
            break
        cum += weight
        weights.append(weight)
    return weights


def _expm_action(q: PartitionMatrix, v: np.ndarray, t: float) -> np.ndarray:
    """v @ e^{tQ} by uniformization (Poisson mixture of powers of P).

    v is one row vector or a block of row vectors (k, size).  P = I + Q/lambda
    with lambda the largest exit rate, kept as Q's sparse entries: q/lambda
    off the diagonal and 1 + q_ii/lambda on it.  Each Poisson term is one
    sparse step, a gather over the stored rows and a ``bincount`` over
    their columns (the block's rows are laid end to end).  A horizon with
    lambda*t beyond 500 is split into equal subintervals to keep the
    Poisson series well-conditioned; see `_poisson_weights` for where
    each series is truncated.
    """
    diagonal = q.rows == q.cols
    lam = float(-q.data[diagonal].min())
    if not lam * t > 0.0:
        return np.array(v, dtype=float)
    scaled = q.data / lam
    size = len(q.index)
    k = v.size // size
    shift = np.arange(0, k * size, size)[:, None]
    rows = (shift + q.rows).ravel()
    cols = (shift + q.cols).ravel()
    p = np.tile(np.where(diagonal, 1.0 + scaled, scaled), k)
    n_chunks = max(1, int(math.ceil(lam * t / _MAX_LAMBDA_T)))
    dt = t / n_chunks
    out = np.array(v, dtype=float).ravel()
    for _ in range(n_chunks):
        weights = _poisson_weights(lam * dt)
        term = out
        acc = weights[0] * term
        for weight in weights[1:]:
            term = np.bincount(cols, weights=term[rows] * p, minlength=out.size)
            acc += weight * term
        out = acc
    return out.reshape(v.shape)


def transition_semigroup(q: PartitionMatrix, t: float) -> PartitionMatrix:
    """The stochastic matrix e^{tQ} on the partition lattice.

    The rows of the identity are carried through the sparse uniformization
    in blocks, and each block's result is stored as it comes; no size x size
    array is formed.
    """
    check_time(t)
    size = len(q.index)
    step = max(1, _BLOCK_ENTRIES // len(q.data))
    entries = []
    for lo in range(0, size, step):
        block = np.eye(min(step, size - lo), size, lo)
        entries.append(_dense_entries(_expm_action(q, block, t), lo))
    rows, cols, data = (np.concatenate(part) for part in zip(*entries))
    return PartitionMatrix._from_entries(q.index, rows, cols, data)


def coefficients_semigroup(
    q: PartitionMatrix, t: float, start: Partition | None = None
) -> CoefficientVector:
    """Row `start` of e^{tQ}: the law of the process at time t.

    Computed as a vector iteration, one sparse step per Poisson term
    (work proportional to Q's stored entries); never forms the exponential.
    """
    check_time(t)
    index = q.index
    v = np.zeros(len(index))
    v[index.index_of(index.one if start is None else start)] = 1.0
    return CoefficientVector(index, _expm_action(q, v, t))


# --------------------------------------------------------------------------
# exit rates and mixture weights (the generic closed form)
# --------------------------------------------------------------------------


class PsiTheta:
    """Exit rates and exponential-mixture weights of the refinement process.

    ``psi(a)`` is the exit rate of a partition (of any site subset);
    ``theta(a, b)`` are the ground-set mixture weights with a refining b.

    On a site subset U, each split c = (c1, c2) at rate rho_c and each pair
    of entries (a1, b1) on c1 and (a2, b2) on c2 add rho_c * theta(a1, b1)
    * theta(a2, b2) to (a1 u a2, b1 u b2), divided by psi(1_U) - psi(b);
    then theta(a, 1_U) = -sum_{b != 1_U} theta(a, b), theta(1_U, 1_U) = 1.

    Only partitions reachable from the one-block state through supported
    splits ever carry weight.  Each part of a split refines on its own, so
    the states reachable from 1_U are 1_U and the unions x1 u x2 of states
    reachable on c1 and c2: one merge table per split maps (x1, x2) to its
    union and keys the weight loop.  Distinct exit rates are required over
    that reachable set (per subset), not the whole lattice.
    Partitions outside it may tie freely: their weights are identically zero.
    """

    __slots__ = ("d", "index", "_table", "_exit_rates")

    def __init__(self, d: RecombinationDistribution):
        self.d = d
        self.index = shared_index(d.ground)
        self._table, self._exit_rates = self._build((1 << d.n_sites) - 1, {})

    def psi(self, a: Partition) -> float:
        return self.d.exit_rate(tuple(self.d.site_mask(b) for b in a.blocks))

    def theta(self, a: Partition, b: Partition) -> float:
        """Ground-set mixture weight; zero unless a refines b."""
        if a.ground != self.d.ground or b.ground != self.d.ground:
            return 0.0
        return self._table.get((tuple(a.as_masks()), tuple(b.as_masks())), 0.0)

    def ground_table(self) -> dict[tuple[Partition, Partition], float]:
        parts, pos = self.index.partitions, self.index.position
        return {(parts[pos[a]], parts[pos[b]]): v for (a, b), v in self._table.items()}

    def _build(self, u: int, tables: dict):
        """Weights on the site subset with mask u, keyed by mask states, and
        the exit rates of the states reachable from (u,); refuses ties."""
        if u in tables:
            return tables[u]
        one = (u,)
        reachable = {one}
        subs = []
        for c1, c2, rate in self.d.split_table(u)[1]:
            t1, r1 = self._build(c1, tables)
            t2, r2 = self._build(c2, tables)
            merge = {(x1, x2): mask_state(x1 + x2) for x1 in r1 for x2 in r2}
            reachable.update(merge.values())
            subs.append((t1, t2, rate, merge))
        psi = {state: self.d.exit_rate(state) for state in reachable}
        values = sorted(psi.values())
        for lo, hi in zip(values, values[1:]):
            if hi - lo <= _GENERIC_RTOL * max(1.0, abs(hi)):
                raise NonGenericRatesError(
                    "exit rates collide on reachable states of sites "
                    f"{Partition.from_masks([u], self.d.ground).ground} "
                    f"({lo!r} vs {hi!r}); the exponential-mixture form needs "
                    "pairwise distinct rates - use the semigroup method for "
                    "this model"
                )
        acc: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        for t1, t2, rate, merge in subs:
            for (a1, b1), v1 in t1.items():
                f1 = rate * v1
                for (a2, b2), v2 in t2.items():
                    key = (merge[a1, a2], merge[b1, b2])
                    acc[key] = acc.get(key, 0.0) + f1 * v2
        top = psi[one]
        table = {key: v / (top - psi[key[1]]) for key, v in acc.items() if v != 0.0}
        totals: dict[tuple[int, ...], float] = {}
        for (a, _), v in table.items():
            totals[a] = totals.get(a, 0.0) + v
        table[(one, one)] = 1.0
        table.update({(a, one): -total for a, total in totals.items() if total != 0.0})
        tables[u] = table, psi
        return tables[u]


def compute_psi_theta(d: RecombinationDistribution) -> PsiTheta:
    """All exit rates and mixture weights needed for the closed form.

    Raises NonGenericRatesError when two exit rates of reachable states
    collide (relative gap below 1e-9); callers should fall back to
    coefficients_semigroup.
    """
    return PsiTheta(d)


def coefficients_recursion(pt: PsiTheta, t: float) -> CoefficientVector:
    """a_t as the exponential mixture sum_{b >= a} theta(a,b) e^{-psi(b) t}."""
    check_time(t)
    index = pt.index
    out = np.zeros(len(index))
    decay: dict[tuple[int, ...], float] = {}
    for (a, b), weight in pt._table.items():
        if b not in decay:
            decay[b] = math.exp(-pt._exit_rates[b] * t)
        out[index.position[a]] += weight * decay[b]
    return CoefficientVector(index, out)


# --------------------------------------------------------------------------
# single-crossover closed form
# --------------------------------------------------------------------------


def coefficients_single_crossover(
    d: RecombinationDistribution, t: float
) -> CoefficientVector:
    """Product form on interval partitions for cut-only models.

    The coefficient of the interval partition with cut set G is the
    product of (1 - e^{-t rho_k}) over cuts in G and e^{-t rho_l} over
    the remaining cuts; every non-interval partition has weight zero.
    """
    check_time(t)
    if not d.is_single_crossover():
        raise DomainError(
            "not a single-crossover model: support contains a non-interval split"
        )
    index = shared_index(d.ground)
    survive = [math.exp(-t * d.cut_rate(k)) for k in range(1, d.n_sites)]
    out = np.zeros(len(index))
    for p in index.interval_partitions():
        cuts = p.cut_set()
        out[index.index_of(p)] = math.prod(
            1.0 - s if k in cuts else s for k, s in enumerate(survive, start=1)
        )
    return CoefficientVector(index, out)


# --------------------------------------------------------------------------
# Monte Carlo route
# --------------------------------------------------------------------------


def _check_start(d: RecombinationDistribution, start: Partition, t: float) -> None:
    if not t >= 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if start.ground != d.ground:
        raise DomainError(f"{start.to_text()} is not a partition of {d.ground}")


def simulate_partitioning(
    d: RecombinationDistribution, start: Partition, t: float, seed: int
) -> Partition:
    """One sample of the refinement process at time t, started at `start`.

    Event-driven: waiting times are exponential in the summed per-block
    split rates, a block is chosen proportionally to its rate and split
    proportionally to its two-way marginal rates.  The result always
    refines `start`.  No lattice enumeration is involved, so this works
    far beyond the exact-method site cap.
    """
    return next(iter(partition_frequencies(d, t, 1, seed, start)))


def partitioning_history(
    d: RecombinationDistribution, start: Partition, t: float, seed: int, replicate: int = 0
) -> list[tuple[float, Partition]]:
    """Event times and states of one sampled refinement path."""
    _check_start(d, start, t)
    replicate = check_count(replicate, "replicate", minimum=0)
    masks, probs = d.event_arrays()
    times, block_sets = _kernels.partition_history(
        masks, probs * d.mu, d.n_sites, start.as_masks(), t, seed, replicate
    )
    out = []
    for when, blocks in zip(times, block_sets):
        out.append(
            (float(when), Partition.from_masks([int(b) for b in blocks], d.ground))
        )
    return out


def partition_frequencies(
    d: RecombinationDistribution,
    t: float,
    n_replicates: int,
    seed: int,
    start: Partition | None = None,
) -> dict[Partition, int]:
    """Monte Carlo sample counts of the refinement process at time t."""
    n_replicates = check_count(n_replicates, "replicate count")
    if start is None:
        start = Partition.one_block(d.ground)
    _check_start(d, start, t)
    masks, probs = d.event_arrays()
    rows = _kernels.partition_batch(
        masks, probs * d.mu, d.n_sites, start.as_masks(), t, seed, n_replicates
    )
    partitions, _, counts = count_label_rows(rows, d.ground)
    return dict(zip(partitions, counts.tolist()))


# --------------------------------------------------------------------------
# discrete time
# --------------------------------------------------------------------------


def build_discrete_matrix(
    d: RecombinationDistribution, index: PartitionIndex
) -> PartitionMatrix:
    """One-generation transition matrix of the discrete refinement chain.

    Every block of the current partition independently either stays whole
    (with its marginal one-block probability) or splits into two (with the
    corresponding two-block marginal probability); the row entry of a
    refinement is the product over blocks.  Requires a probability-style
    model because the entries are per-generation probabilities, not rates.
    """
    if d.style != "probability":
        raise DomainError(
            "discrete-time iteration needs a probability-style model "
            "(per-generation r values), not rates"
        )
    if index.ground != d.ground:
        raise DomainError(f"index ground {index.ground} does not match {d.ground}")
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, state in enumerate(index.states):
        options_per_block = []
        for b in state:
            stay, splits = d.split_table(b)
            opts = [((b,), stay / d.mu)] if stay > 0 else []
            opts.extend(((p1, p2), rate / d.mu) for p1, p2, rate in splits)
            options_per_block.append(opts)
        for combo in itertools.product(*options_per_block):
            blocks: list[int] = []
            prob = 1.0
            for c, p in combo:
                blocks.extend(c)
                prob *= p
            rows.append(i)
            cols.append(index.position[mask_state(blocks)])
            data.append(prob)
    return PartitionMatrix._from_entries(index, rows, cols, data)


def coefficients_discrete(
    m: PartitionMatrix, t: int, start: Partition | None = None
) -> CoefficientVector:
    """Row `start` of M^t by iterated sparse vector-matrix steps."""
    t = check_count(t, "generation count", minimum=0)
    index = m.index
    v = np.zeros(len(index))
    v[index.index_of(index.one if start is None else start)] = 1.0
    for _ in range(t):
        v = np.bincount(m.cols, weights=v[m.rows] * m.data, minlength=len(index))
    return CoefficientVector(index, v)
