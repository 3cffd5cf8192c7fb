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

import logging
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .ancestral import (  # EXACT_METHODS, compute_psi_theta: re-exported
    EXACT_METHODS,
    CoefficientVector,
    build_generator,
    coefficients_semigroup,
    compute_psi_theta,
    exact_route,
    on_output_index,
)
from .errors import (
    DomainError, MassDriftError, SizeCapError, check_count, check_grid, check_time,
)
from .measure import TypeDistribution, TypeSpace
from .partitions import Partition, shared_index
from .rates import RecombinationDistribution

log = logging.getLogger(__name__)

#: hard error threshold for |mass - 1| along integrated trajectories.
MASS_TOL = 1e-9


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

    The field steps the product of ``letters`` (per site, the letters kept;
    all of them by default): recombination keeps every one-site marginal,
    so a letter absent at t = 0 stays absent and its types stay at zero.
    ``where`` is the increasing map from the stepped types to their
    full-space indices.  Row e of idx1/idx2 sends a stepped type to its
    marginal bin on block 1/block 2 of event e; each event's bins follow
    the previous event's, so all block marginals of a side are one
    bincount pass.  ``probs`` holds r(A) and ``rates`` mu * r(A) per
    event, in ``event_arrays`` order; callers check the model's sites
    against the space first.
    """

    __slots__ = ("space", "probs", "rates", "idx1", "idx2", "where", "_full")

    def __init__(
        self,
        d: RecombinationDistribution,
        space: TypeSpace,
        letters: Sequence[np.ndarray] | None = None,
    ):
        masks, self.probs = d.event_arrays()
        if letters is None:
            letters = [np.arange(s, dtype=np.int64) for s in space.alphabet_sizes]
        n = space.n_sites
        sizes = [len(x) for x in letters]
        # per site, each stepped type's rank among the letters kept
        digits = np.indices(sizes, dtype=np.int64).reshape(n, -1)
        K = digits.shape[1]
        where = np.zeros(K, dtype=np.int64)
        for i in range(n):
            where += letters[i][digits[i]] * space.places[i]
        idx1 = np.zeros((len(masks), K), dtype=np.int64)
        idx2 = np.zeros((len(masks), K), dtype=np.int64)
        # block 1 is the mask's sites, block 2 the complement's
        for flip, idx in ((0, idx1), ((1 << n) - 1, idx2)):
            offset = 0
            for e, mask in enumerate(masks.tolist()):
                bins = 1
                idx[e] = offset
                for i in reversed(range(n)):
                    if (mask ^ flip) >> i & 1:
                        idx[e] += digits[i] * bins
                        bins *= sizes[i]
                offset += bins
        self.space = space
        self.rates = self.probs * d.mu
        self.idx1 = idx1
        self.idx2 = idx2
        self.where = where
        self._full = np.zeros(space.cardinality)

    @classmethod
    def reaching(cls, d: RecombinationDistribution, w0: TypeDistribution) -> "_VectorField":
        """The field on the letters present in w0 (those of positive
        one-site marginal): the types its flow reaches."""
        space = w0.space
        held = np.flatnonzero(w0._dense > 0.0)
        return cls(d, space, [np.unique(held // place % size)
                              for place, size in zip(space.places, space.alphabet_sizes)])

    def mass(self, w: np.ndarray) -> float:
        """The sum of w laid out on the full space: numpy sums pairwise, so
        the zeros of the absent types decide how the sum rounds."""
        self._full[self.where] = w
        return self._full.sum()

    def full(self, w: np.ndarray) -> np.ndarray:
        """w as a new full-space array, zero on the types not stepped."""
        out = np.zeros(self.space.cardinality)
        out[self.where] = w
        return out

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return _kernels.rhs_dense(w, self.idx1, self.idx2, self.rates, self.mass(w))


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
) -> tuple[np.ndarray, int]:
    """Advance w over `duration` with steps of dt (shorter final step);
    returns the state and the number of steps."""
    remaining = duration
    steps = 0
    while remaining > 1e-15 * max(1.0, duration):
        h = dt if dt <= remaining else remaining
        k1 = field(w)
        k2 = field(w + (0.5 * h) * k1)
        k3 = field(w + (0.5 * h) * k2)
        k4 = field(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= h
        steps += 1
        mass = field.mass(w)
        if not abs(mass - 1.0) <= MASS_TOL:
            raise MassDriftError(
                f"integration mass drifted to {mass!r} (|drift| > {MASS_TOL}); "
                "reduce dt instead of silently renormalizing"
            )
    return w, steps


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


def _log_stepped(what: str, space: TypeSpace, stepped: int, steps: int, evals: int) -> None:
    log.info("%s on %d sites: %d of %d types stepped, %d steps, "
             "%d right-hand-side evaluations", what, space.n_sites, stepped,
             space.cardinality, steps, evals)


def integrate_grid(
    d: RecombinationDistribution,
    w0: TypeDistribution,
    t_grid: Iterable[float],
    dt: float,
) -> Trajectory:
    """Like :func:`integrate` but records only the listed times.

    The grid must start at 0 and increase, and is checked before any
    step; integration still proceeds in steps of dt within each span (with
    a shorter final step per span).  Only the types over the letters
    present in w0 are stepped; every recorded state is bitwise the one
    stepped on the whole space.  The stepped size is logged at INFO.
    """
    _check_model_space(d, w0)
    _require_dense(w0, "numerical integration")
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    times = check_grid(t_grid, from_zero=True)
    if not abs(w0._dense.sum() - 1.0) <= MASS_TOL:
        raise MassDriftError("initial state is not a probability distribution")
    field = _VectorField.reaching(d, w0)
    w = w0._dense[field.where]
    states = [w0]
    steps = 0
    for earlier, later in zip(times, times[1:]):
        w, taken = _rk4_span(field, w, later - earlier, dt)
        steps += taken
        states.append(TypeDistribution._from_dense(w0.space, field.full(w)))
    _log_stepped("integrate_grid", w0.space, len(field.where), steps, 4 * steps)
    return Trajectory(times, states)


def exact_coefficients(
    d: RecombinationDistribution, times: Iterable[float], method: str
) -> list[CoefficientVector]:
    """a_t at each of `times` by one exact route, prepared once for all
    times by ``exact_route``; the vectors come back through
    ``on_output_index`` (the whole lattice up to ``DEFAULT_SITE_CAP``
    sites, the reachable states above).  The recursion refuses past
    ``DEFAULT_SITE_CAP`` sites.  The route and its sizes (from the
    prepared route) are logged at INFO.
    """
    times = [float(t) for t in times]
    for t in times:
        check_time(t)
    route = exact_route(d, method)
    log.info("exact route %s on %d sites: %d reachable states, %d stored generator entries",
             method, d.n_sites, route.reachable, route.entries)
    return on_output_index([route.at(t) for t in times])


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
    space it is one ``rhs_dense`` pass of the ODE kernel over the letters
    present in w0, bitwise the pass over the whole space; its increment
    sums to zero, so mass is kept by construction. A sparse space steps
    entry by entry with the residual clamped at 0, over the types it
    holds. The stepped size is logged at INFO.
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
        field = _VectorField.reaching(d, w0)
        w = w0._dense[field.where]
        for _ in range(t):
            w = w + _kernels.rhs_dense(w, field.idx1, field.idx2, field.probs, field.mass(w))
            states.append(TypeDistribution._from_dense(w0.space, field.full(w)))
        _log_stepped("iterate_discrete", w0.space, len(field.where), t, t)
        return Trajectory(times, states)
    residual = d.residual_probability
    w = w0
    stepped = len(w0._sparse)
    for _ in range(t):
        acc = {ty: residual * v for ty, v in w.items()}
        for a, r in d.entries.items():
            for ty, v in w.product_over_blocks(a).items():
                acc[ty] = acc.get(ty, 0.0) + r * v
        w = TypeDistribution._from_sparse(w.space, acc)
        states.append(w)
        stepped = max(stepped, len(acc))
    _log_stepped("iterate_discrete", w0.space, stepped, t, 0)
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
