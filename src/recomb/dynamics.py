"""Forward-in-time solution of the recombination dynamics.

Three routes to the same flow on probability distributions:

* ``integrate`` - fixed-step 4th-order integration of the nonlinear
  vector field sum_A rho(A) (recombine_A(w) - w);
* ``solve_exact`` - the convex combination sum_A a_t(A) recombine_A(w0)
  with coefficients from any of the exact routes in :mod:`.ancestral`
  (``exact_coefficients`` builds a route once for many times);
* ``iterate_discrete`` - the per-generation map of probability-style
  models, w -> w + F_r(w): the same vector field with the probabilities
  r in place of the rates, on the same dense kernel.

``check_duality`` confirms that recombining the solved state along a
partition equals restarting the coefficient process from that partition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .ancestral import (
    CoefficientVector,
    build_generator,
    coefficients_recursion,
    coefficients_semigroup,
    coefficients_single_crossover,
    compute_psi_theta,
)
from .errors import (
    DomainError, MassDriftError, SizeCapError, check_count, check_grid, check_time,
)
from .measure import TypeDistribution, TypeSpace
from .partitions import Partition, shared_index
from .rates import RecombinationDistribution

#: hard error threshold for |mass - 1| along integrated trajectories.
MASS_TOL = 1e-9

EXACT_METHODS = ("semigroup", "recursion", "single_crossover")


class Trajectory:
    """Time-aligned sequence of distribution states, first time 0."""

    __slots__ = ("times", "states")

    def __init__(self, times: Sequence[float], states: Sequence[TypeDistribution]):
        if len(times) != len(states):
            raise DomainError("times and states must align")
        self.times = check_grid(times, from_zero=True)
        self.states = list(states)

    @property
    def final(self) -> TypeDistribution:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.states))

    def state_at(self, t: float) -> TypeDistribution:
        for when, state in zip(self.times, self.states):
            if when == t:
                return state
        raise DomainError(f"time {t} not on the trajectory grid")


class SignedIncrement:
    """A signed measure on a type space (the vector field's value)."""

    __slots__ = ("space", "values")

    def __init__(self, space: TypeSpace, values: np.ndarray):
        self.space = space
        self.values = values

    def weight(self, t) -> float:
        return float(self.values[self.space.encode(t)])

    def total(self) -> float:
        return float(self.values.sum())

    def to_array(self) -> np.ndarray:
        return self.values.copy()


def _require_dense(w: TypeDistribution, what: str) -> None:
    if not w.is_dense:
        raise SizeCapError(f"{what} needs a dense type space (within the storage cap)")


def _check_model_space(d: RecombinationDistribution, w: TypeDistribution) -> None:
    if d.ground != w.space.sites:
        raise DomainError(
            f"model sites {d.ground} do not match the distribution's {w.space.sites}"
        )


class _VectorField:
    """Precomputed flat-index maps for the dense right-hand side.

    Row e of idx1/idx2 sends a flat type index to its marginal bin on
    block 1/block 2 of event e; each event's bins follow the previous
    event's, so all block marginals of a side are one bincount pass.
    ``probs`` holds r(A) and ``rates`` mu * r(A) per event; callers check
    the model's sites against the space first.
    """

    __slots__ = ("space", "probs", "rates", "idx1", "idx2")

    def __init__(self, d: RecombinationDistribution, space: TypeSpace):
        entries = sorted(d.entries.items(), key=lambda kv: kv[0].sort_key())
        K = space.cardinality
        digits = np.empty((space.n_sites, K), dtype=np.int64)
        flat = np.arange(K, dtype=np.int64)
        for i in range(space.n_sites):
            digits[i] = (flat // space.places[i]) % space.alphabet_sizes[i]
        idx1 = np.zeros((len(entries), K), dtype=np.int64)
        idx2 = np.zeros((len(entries), K), dtype=np.int64)
        for side, idx in enumerate((idx1, idx2)):
            offset = 0
            for e, (a, _) in enumerate(entries):
                block = a.blocks[side]
                sub = space.subspace(block)
                idx[e] = offset
                for pos, site in enumerate(block):
                    idx[e] += digits[site - 1] * sub.places[pos]
                offset += sub.cardinality
        self.space = space
        self.probs = np.array([r for _, r in entries])
        self.rates = self.probs * d.mu
        self.idx1 = idx1
        self.idx2 = idx2

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return _kernels.rhs_dense(w, self.idx1, self.idx2, self.rates)


def rhs(d: RecombinationDistribution, w: TypeDistribution) -> SignedIncrement:
    """The vector field sum over events of rate * (recombined w - w).

    Always sums to zero: recombination moves mass around, never creates
    or destroys it.
    """
    _check_model_space(d, w)
    _require_dense(w, "the differential right-hand side")
    field = _VectorField(d, w.space)
    return SignedIncrement(w.space, field(w.to_array()))


def _rk4_span(
    field: _VectorField, w: np.ndarray, duration: float, dt: float
) -> np.ndarray:
    """Advance w over `duration` with steps of dt (shorter final step)."""
    remaining = duration
    while remaining > 1e-15 * max(1.0, duration):
        h = dt if dt <= remaining else remaining
        k1 = field(w)
        k2 = field(w + (0.5 * h) * k1)
        k3 = field(w + (0.5 * h) * k2)
        k4 = field(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= h
        mass = w.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise MassDriftError(
                f"integration mass drifted to {mass!r} (|drift| > {MASS_TOL}); "
                "reduce dt instead of silently renormalizing"
            )
    return w


def integrate(
    d: RecombinationDistribution, w0: TypeDistribution, t_end: float, dt: float
) -> Trajectory:
    """Fixed-step trajectory from 0 to t_end, one recorded state per step."""
    check_time(t_end)
    if t_end > 0 and not 0 < dt <= t_end:
        raise DomainError(f"dt must satisfy 0 < dt <= t_end, got {dt}")
    grid = [0.0]
    if t_end > 0:
        n_full = int(t_end / dt + 1e-9)
        while n_full * dt >= t_end:
            n_full -= 1
        grid.extend(k * dt for k in range(1, n_full + 1))
        grid.append(t_end)
    return integrate_grid(d, w0, grid, dt)


def integrate_grid(
    d: RecombinationDistribution,
    w0: TypeDistribution,
    t_grid: Iterable[float],
    dt: float,
) -> Trajectory:
    """Like :func:`integrate` but records only the listed times.

    The grid must start at 0 and increase, and is checked before any
    step; integration still proceeds in steps of dt within each span (with
    a shorter final step per span).
    """
    _check_model_space(d, w0)
    _require_dense(w0, "numerical integration")
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    times = check_grid(t_grid, from_zero=True)
    field = _VectorField(d, w0.space)
    w = w0.to_array()
    if abs(w.sum() - 1.0) > MASS_TOL:
        raise MassDriftError("initial state is not a probability distribution")
    states = [w0]
    for earlier, later in zip(times, times[1:]):
        w = _rk4_span(field, w, later - earlier, dt)
        states.append(TypeDistribution._from_dense(w0.space, w.copy()))
    return Trajectory(times, states)


def exact_coefficients(
    d: RecombinationDistribution, times: Iterable[float], method: str
) -> list[CoefficientVector]:
    """a_t at each of `times` by one exact route, built once for all times
    (one generator for ``semigroup``, one ``PsiTheta`` for ``recursion``)."""
    times = [float(t) for t in times]
    if method not in EXACT_METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {EXACT_METHODS}")
    for t in times:
        check_time(t)
    if method == "semigroup":
        q = build_generator(d, shared_index(d.ground))
        return [coefficients_semigroup(q, t) for t in times]
    if method == "recursion":
        pt = compute_psi_theta(d)
        return [coefficients_recursion(pt, t) for t in times]
    return [coefficients_single_crossover(d, t) for t in times]


def mixture_from_coefficients(
    coefficients: CoefficientVector, w0: TypeDistribution
) -> TypeDistribution:
    """sum_A a(A) * recombine_A(w0), skipping zero-weight partitions.

    On a dense space each block's marginal is computed once per call and
    shared by every partition that has the block.
    """
    if coefficients.index.ground != w0.space.sites:
        raise DomainError("coefficient index and distribution sites differ")
    if w0.is_dense:
        acc = np.zeros(w0.space.cardinality)
        total = w0.mass
        margs: dict = {}
        partitions = coefficients.index.partitions
        weights = coefficients.values
        for i in np.flatnonzero(weights).tolist():
            a = partitions[i]
            if a.n_blocks == 1 or total == 0.0:
                term = w0._dense
            else:
                term = w0._block_product(a, total, margs)
            acc += float(weights[i]) * term
        return TypeDistribution._from_dense(w0.space, acc)
    acc_d: dict[tuple[int, ...], float] = {}
    for a, weight in coefficients.items():
        if weight == 0.0:
            continue
        for t, v in w0.product_over_blocks(a).items():
            acc_d[t] = acc_d.get(t, 0.0) + weight * v
    return TypeDistribution._from_sparse(w0.space, acc_d)


def solve_exact(
    d: RecombinationDistribution,
    w0: TypeDistribution,
    t: float,
    method: str = "semigroup",
) -> TypeDistribution:
    """The solved state at time t as a coefficient-weighted mixture of
    recombined initial conditions."""
    _check_model_space(d, w0)
    return mixture_from_coefficients(exact_coefficients(d, [t], method)[0], w0)


def iterate_discrete(
    d: RecombinationDistribution, w0: TypeDistribution, t: int
) -> Trajectory:
    """The per-generation map w -> w + F_r(w), t times.

    Needs a probability-style model. F_r is the vector field of
    :func:`rhs` with the probabilities r(A) in place of the rates, so a
    generation is sum_A r(A) recombine_A(w) + (1 - sum r) w. On a dense
    space it is one ``rhs_dense`` pass of the ODE kernel; its increment
    sums to zero, so mass is kept by construction. A sparse space steps
    entry by entry with the residual clamped at 0.
    """
    _check_model_space(d, w0)
    if d.style != "probability":
        raise DomainError(
            "discrete-time iteration needs a probability-style model, not rates"
        )
    t = check_count(t, "generation count", minimum=0)
    times = [float(s) for s in range(t + 1)]
    states = [w0]
    if w0.is_dense:
        field = _VectorField(d, w0.space)
        w = w0._dense
        for _ in range(t):
            w = w + _kernels.rhs_dense(w, field.idx1, field.idx2, field.probs)
            states.append(TypeDistribution._from_dense(w0.space, w))
        return Trajectory(times, states)
    entries = sorted(d.entries.items(), key=lambda kv: kv[0].sort_key())
    residual = d.residual_probability
    w = w0
    for _ in range(t):
        acc = {ty: residual * v for ty, v in w.items()}
        for a, r in entries:
            for ty, v in w.product_over_blocks(a).items():
                acc[ty] = acc.get(ty, 0.0) + r * v
        w = TypeDistribution._from_sparse(w.space, acc)
        states.append(w)
    return Trajectory(times, states)


def check_duality(
    d: RecombinationDistribution, w0: TypeDistribution, b: Partition, t: float
) -> float:
    """Sup-norm gap between the two sides of the duality identity.

    Left: solve to time t, then recombine along b.  Right: restart the
    coefficient process from b and mix the recombined initial conditions.
    Both sides use one generator, started from the one-block partition and
    from b; the gap should sit at rounding level (about 1e-10) for
    exact-lattice models.
    """
    _check_model_space(d, w0)
    if b.ground != d.ground:
        raise DomainError(f"{b.to_text()} is not a partition of {d.ground}")
    q = build_generator(d, shared_index(d.ground))
    left = mixture_from_coefficients(coefficients_semigroup(q, t), w0).product_over_blocks(b)
    right = mixture_from_coefficients(coefficients_semigroup(q, t, start=b), w0)
    return left.sup_distance(right)
