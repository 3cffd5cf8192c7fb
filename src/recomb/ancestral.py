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
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import DomainError, NonGenericRatesError
from .partitions import (
    Partition,
    PartitionIndex,
    refinements,
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


class PartitionMatrix:
    """Dense real matrix indexed by partitions on both axes."""

    __slots__ = ("index", "values")

    def __init__(self, index: PartitionIndex, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(index), len(index)):
            raise DomainError(
                f"matrix shape {values.shape} does not match index size {len(index)}"
            )
        self.index = index
        self.values = values

    def entry(self, a: Partition, b: Partition) -> float:
        return float(self.values[self.index.index_of(a), self.index.index_of(b)])

    def row(self, a: Partition) -> np.ndarray:
        return self.values[self.index.index_of(a)].copy()

    def __repr__(self) -> str:
        return f"PartitionMatrix(n={len(self.index.ground)}, size={len(self.index)})"


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
    return sum(d.split_rate(b) for b in a.blocks)


def build_generator(d: RecombinationDistribution, index: PartitionIndex) -> PartitionMatrix:
    """Markov generator of the refinement process on the full lattice.

    From state A, each block independently splits into an unordered pair
    at its two-block marginal rate; the diagonal balances each row.
    Nonzero off-diagonals always point from coarser to strictly finer
    partitions, so the matrix is triangular in index order.
    """
    if index.ground != d.ground:
        raise DomainError(f"index ground {index.ground} does not match {d.ground}")
    size = len(index)
    q = np.zeros((size, size))
    for i, a in enumerate(index):
        total = 0.0
        for b in a.blocks:
            if len(b) < 2:
                continue
            others = [blk for blk in a.blocks if blk != b]
            for c, rate in d.block_split_rates(b).items():
                target = Partition(list(others) + list(c.blocks))
                q[i, index.index_of(target)] += rate
                total += rate
        q[i, i] = -total
    return PartitionMatrix(index, q)


def _uniformized(q: np.ndarray) -> tuple[np.ndarray, float]:
    lam = float(-q.diagonal().min())
    if lam <= 0.0:
        return np.eye(q.shape[0]), 0.0
    return np.eye(q.shape[0]) + q / lam, lam


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


def _expm_action(q: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """v @ e^{tQ} by uniformization (Poisson mixture of powers).

    A horizon with lambda*t beyond 500 is split into equal subintervals
    to keep the Poisson series well-conditioned; see `_poisson_weights`
    for where each series is truncated.
    """
    p, lam = _uniformized(q)
    if lam * t == 0.0:
        return v.copy()
    n_chunks = max(1, int(math.ceil(lam * t / _MAX_LAMBDA_T)))
    dt = t / n_chunks
    out = v.astype(float).copy()
    for _ in range(n_chunks):
        weights = _poisson_weights(lam * dt)
        term = out
        acc = weights[0] * term
        for weight in weights[1:]:
            term = term @ p
            acc = acc + weight * term
        out = acc
    return out


def _expm_full(q: np.ndarray, t: float) -> np.ndarray:
    """e^{tQ} as a dense matrix, by the same uniformization scheme."""
    return _expm_action(q, np.eye(q.shape[0]), t)


def transition_semigroup(q: PartitionMatrix, t: float) -> PartitionMatrix:
    """The stochastic matrix e^{tQ} on the partition lattice."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    return PartitionMatrix(q.index, _expm_full(q.values, t))


def coefficients_semigroup(
    q: PartitionMatrix, t: float, start: Partition | None = None
) -> CoefficientVector:
    """Row `start` of e^{tQ}: the law of the process at time t.

    Computed as a vector iteration so only O(size^2) work per Poisson
    term is needed; never forms the full exponential.
    """
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    index = q.index
    if start is None:
        start = index.one
    v = np.zeros(len(index))
    v[index.index_of(start)] = 1.0
    return CoefficientVector(index, _expm_action(q.values, v, t))


# --------------------------------------------------------------------------
# exit rates and mixture weights (the generic closed form)
# --------------------------------------------------------------------------


class PsiTheta:
    """Exit rates and exponential-mixture weights of the refinement process.

    ``psi_block(u)`` is the total two-way split rate of the site subset u;
    ``psi(a)`` sums it over the blocks of a partition (of any subset);
    ``theta(a, b)`` are the ground-set mixture weights with a refining b.
    Built bottom-up from singleton subsets, memoized per subset touched.

    Only partitions reachable from the one-block state through supported
    splits ever carry weight, so the pairwise-distinct exit-rate requirement
    is checked over that reachable set (per subset), not the whole lattice.
    Partitions outside it may tie freely: their weights are identically zero.
    """

    __slots__ = ("d", "index", "_psi_one", "_splits", "_tables")

    def __init__(self, d: RecombinationDistribution, index: PartitionIndex | None = None):
        self.d = d
        self.index = index if index is not None else PartitionIndex(d.ground)
        self._psi_one: dict[frozenset, float] = {}
        self._splits: dict[frozenset, dict[Partition, float]] = {}
        self._tables: dict[frozenset, dict[tuple[Partition, Partition], float]] = {}
        self._table(frozenset(d.ground))

    # -- exit rates -----------------------------------------------------

    def _splits_of(self, u: Iterable[int]) -> dict[Partition, float]:
        key = frozenset(u)
        cached = self._splits.get(key)
        if cached is None:
            cached = self.d.block_split_rates(sorted(key))
            self._splits[key] = cached
        return cached

    def psi_block(self, u: Iterable[int]) -> float:
        key = frozenset(u)
        cached = self._psi_one.get(key)
        if cached is None:
            cached = sum(self._splits_of(key).values())
            self._psi_one[key] = cached
        return cached

    def psi(self, a: Partition) -> float:
        return sum(self.psi_block(b) for b in a.blocks)

    def _reachable(self, u: tuple[int, ...]) -> list[Partition]:
        """Partitions of u reachable from one block via supported splits."""
        one = Partition.one_block(u)
        seen = {one}
        frontier = [one]
        while frontier:
            nxt = []
            for p in frontier:
                for w in p.blocks:
                    if len(w) < 2:
                        continue
                    rest = [b for b in p.blocks if b != w]
                    for c in self._splits_of(w):
                        child = Partition(rest + list(c.blocks))
                        if child not in seen:
                            seen.add(child)
                            nxt.append(child)
            frontier = nxt
        return sorted(seen, key=lambda p: p.sort_key())

    def _check_generic(self, u: tuple[int, ...], reach: list[Partition]) -> None:
        values = sorted(self.psi(a) for a in reach)
        for lo, hi in zip(values, values[1:]):
            if hi - lo <= _GENERIC_RTOL * max(1.0, abs(hi)):
                raise NonGenericRatesError(
                    f"exit rates collide on reachable states of sites {u} "
                    f"({lo!r} vs {hi!r}); the exponential-mixture form needs "
                    "pairwise distinct rates - use the semigroup method for "
                    "this model"
                )

    # -- mixture weights ---------------------------------------------------

    def theta(self, a: Partition, b: Partition) -> float:
        """Ground-set mixture weight; zero unless a refines b."""
        table = self._tables[frozenset(self.d.ground)]
        return table.get((a, b), 0.0)

    def ground_table(self) -> dict[tuple[Partition, Partition], float]:
        return dict(self._tables[frozenset(self.d.ground)])

    def _table(self, key: frozenset) -> dict[tuple[Partition, Partition], float]:
        cached = self._tables.get(key)
        if cached is not None:
            return cached
        u = tuple(sorted(key))
        one = Partition.one_block(u)
        table: dict[tuple[Partition, Partition], float] = {}
        if len(u) == 1:
            table[(one, one)] = 1.0
            self._tables[key] = table
            return table
        splits = self._splits_of(key)
        sub = {c: (self._table(frozenset(c.blocks[0])), self._table(frozenset(c.blocks[1])))
               for c in splits}
        psi_top = self.psi_block(u)
        reach = self._reachable(u)
        self._check_generic(u, reach)
        for b in reach:
            if b == one:
                continue
            denom = psi_top - self.psi(b)
            for a in refinements(b):
                acc = 0.0
                for c, rate in splits.items():
                    if not b.refines(c):
                        continue
                    t1, t2 = sub[c]
                    c1, c2 = c.blocks
                    f1 = t1.get((a.restrict(c1), b.restrict(c1)), 0.0)
                    if f1 == 0.0:
                        continue
                    f2 = t2.get((a.restrict(c2), b.restrict(c2)), 0.0)
                    if f2 == 0.0:
                        continue
                    acc += rate * f1 * f2
                if acc != 0.0:
                    table[(a, b)] = acc / denom
        table[(one, one)] = 1.0
        totals: dict[Partition, float] = {}
        for (aa, bb), val in table.items():
            if bb != one:
                totals[aa] = totals.get(aa, 0.0) + val
        for a, total in totals.items():
            if total != 0.0:
                table[(a, one)] = -total
        self._tables[key] = table
        return table


def compute_psi_theta(d: RecombinationDistribution) -> PsiTheta:
    """All exit rates and mixture weights needed for the closed form.

    Raises NonGenericRatesError when two exit rates of reachable states
    collide (relative gap below 1e-9); callers should fall back to
    coefficients_semigroup.
    """
    return PsiTheta(d)


def coefficients_recursion(pt: PsiTheta, t: float) -> CoefficientVector:
    """a_t as the exponential mixture sum_{b >= a} theta(a,b) e^{-psi(b) t}."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    index = pt.index
    out = np.zeros(len(index))
    decay = {b: math.exp(-pt.psi(b) * t) for b in index}
    for (a, b), weight in pt.ground_table().items():
        out[index.index_of(a)] += weight * decay[b]
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
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if not d.is_single_crossover():
        raise DomainError(
            "not a single-crossover model: support contains a non-interval split"
        )
    index = PartitionIndex(d.ground)
    n = d.n_sites
    survive = {k: math.exp(-t * d.cut_rate(k)) for k in range(1, n)}
    out = np.zeros(len(index))
    for p in index.interval_partitions():
        cuts = p.cut_set()
        val = 1.0
        for k in range(1, n):
            val *= (1.0 - survive[k]) if k in cuts else survive[k]
        out[index.index_of(p)] = val
    return CoefficientVector(index, out)


# --------------------------------------------------------------------------
# Monte Carlo route
# --------------------------------------------------------------------------


def _check_start(d: RecombinationDistribution, start: Partition, t: float) -> None:
    if t < 0:
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
    _check_start(d, start, t)
    masks, probs = d.event_arrays()
    rows = _kernels.partition_batch(
        masks, probs * d.mu, d.n_sites, start.as_masks(), t, seed, 1
    )
    return Partition.from_labels(rows[0], d.ground)


def partitioning_history(
    d: RecombinationDistribution, start: Partition, t: float, seed: int, replicate: int = 0
) -> list[tuple[float, Partition]]:
    """Event times and states of one sampled refinement path."""
    _check_start(d, start, t)
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
    if n_replicates < 1:
        raise DomainError("need at least one replicate")
    if start is None:
        start = Partition.one_block(d.ground)
    _check_start(d, start, t)
    masks, probs = d.event_arrays()
    rows = _kernels.partition_batch(
        masks, probs * d.mu, d.n_sites, start.as_masks(), t, seed, n_replicates
    )
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    return {
        Partition.from_labels(uniq[i], d.ground): int(counts[i])
        for i in range(uniq.shape[0])
    }


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
    size = len(index)
    m = np.zeros((size, size))
    for i, a in enumerate(index):
        options_per_block = []
        for b in a.blocks:
            opts = []
            stay = d.marginal_rate(b, Partition.one_block(b)) / d.mu
            if stay > 0:
                opts.append((Partition.one_block(b), stay))
            for c, rate in d.block_split_rates(b).items():
                opts.append((c, rate / d.mu))
            options_per_block.append(opts)
        for combo in itertools.product(*options_per_block):
            blocks: list[tuple[int, ...]] = []
            prob = 1.0
            for c, p in combo:
                blocks.extend(c.blocks)
                prob *= p
            target = Partition(blocks)
            m[i, index.index_of(target)] += prob
    return PartitionMatrix(index, m)


def coefficients_discrete(
    m: PartitionMatrix, t: int, start: Partition | None = None
) -> CoefficientVector:
    """Row `start` of M^t by iterated vector-matrix products."""
    if t < 0 or int(t) != t:
        raise DomainError(f"generation count must be a nonnegative integer, got {t}")
    index = m.index
    if start is None:
        start = index.one
    v = np.zeros(len(index))
    v[index.index_of(start)] = 1.0
    for _ in range(int(t)):
        v = v @ m.values
    return CoefficientVector(index, v)
