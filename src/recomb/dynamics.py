"""Forward-in-time solution of the recombination dynamics.

Three routes to the same flow on probability distributions, each run on
the start's :class:`~.measure.Reduction` to the letters present:

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
import math
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
from .measure import DENSE_CAP, Reduction, TypeDistribution, TypeSpace
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


def _check_model_space(d: RecombinationDistribution, w: TypeDistribution) -> None:
    if d.ground != w.space.sites:
        raise DomainError(
            f"model sites {d.ground} do not match the distribution's {w.space.sites}"
        )


class _VectorField:
    """Precomputed flat-index maps for the dense right-hand side on `space`.

    Row e of idx1/idx2 sends a type to its marginal bin on block 1/block 2
    of event e; each event's bins follow the previous event's, so all
    block marginals of a side are one bincount pass.  ``probs`` holds r(A)
    and ``rates`` mu * r(A) per event, in ``event_arrays`` order; ``mass``
    sums a state (``Reduction.mass`` on a reduced space).  Callers check
    the model's sites against the space first.
    """

    __slots__ = ("probs", "rates", "idx1", "idx2", "mass")

    def __init__(self, d: RecombinationDistribution, space: TypeSpace, mass=np.sum):
        masks, self.probs = d.event_arrays()
        n, sizes = space.n_sites, space.alphabet_sizes
        digits = np.indices(sizes, dtype=np.int64).reshape(n, -1)
        self.idx1 = np.zeros((len(masks), digits.shape[1]), dtype=np.int64)
        self.idx2 = np.zeros_like(self.idx1)
        # block 1 is the mask's sites, block 2 the complement's
        for flip, idx in ((0, self.idx1), ((1 << n) - 1, self.idx2)):
            offset = 0
            for e, mask in enumerate(masks.tolist()):
                side = [i for i in range(n) if (mask ^ flip) >> i & 1]
                dims = [sizes[i] for i in side]
                idx[e] = offset + np.ravel_multi_index(digits[side], dims)
                offset += math.prod(dims)
        self.rates = self.probs * d.mu
        self.mass = mass

    def __call__(self, w: np.ndarray) -> np.ndarray:
        return _kernels.rhs_dense(w, self.idx1, self.idx2, self.rates, self.mass(w))


def rhs(d: RecombinationDistribution, w: TypeDistribution) -> SignedIncrement:
    """The vector field sum over events of rate * (recombined w - w).

    Always sums to zero: recombination moves mass around, never creates
    or destroys it.
    """
    _check_model_space(d, w)
    if not w.is_dense:
        raise SizeCapError("the differential right-hand side needs a dense type space")
    return SignedIncrement(w.space, _VectorField(d, w.space)(w.to_array()))


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


def integrate_grid(
    d: RecombinationDistribution,
    w0: TypeDistribution,
    t_grid: Iterable[float],
    dt: float,
) -> Trajectory:
    """Like :func:`integrate` but records only the listed times.

    The grid must start at 0 and increase, and is checked before any
    step; integration still proceeds in steps of dt within each span (with
    a shorter final step per span).  The start's reduction to the letters
    present is stepped and must fit under ``DENSE_CAP``; each state is
    bitwise the one stepped on the whole space where that fits.  The
    stepped size is logged at INFO.
    """
    _check_model_space(d, w0)
    red = Reduction(w0)
    if not red.space.dense:
        raise SizeCapError(f"integration needs at most {DENSE_CAP} types of the letters present")
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be positive and finite, got {dt}")
    times = check_grid(t_grid, from_zero=True)
    if not abs(w0.mass - 1.0) <= MASS_TOL:
        raise MassDriftError("initial state is not a probability distribution")
    field = _VectorField(d, red.space, red.mass)
    w = red.values
    states = [w0]
    steps = 0
    for earlier, later in zip(times, times[1:]):
        w, taken = _rk4_span(field, w, later - earlier, dt)
        steps += taken
        states.append(red.expand(w))
    log.info("integrate_grid on %d sites: %d of %d types stepped, %d steps, "
             "%d right-hand-side evaluations", d.n_sites, red.space.cardinality,
             w0.space.cardinality, steps, 4 * steps)
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
    """sum_A a(A) * recombine_A(w0), skipping zero-weight partitions, by
    :meth:`TypeDistribution.recombined`."""
    if coefficients.index.ground != w0.space.sites:
        raise DomainError("coefficient index and distribution sites differ")
    partitions, weights = coefficients.index.partitions, coefficients.values
    nonzero = np.flatnonzero(weights).tolist()
    return w0.recombined((partitions[i], float(weights[i])) for i in nonzero)


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
    generation is sum_A r(A) recombine_A(w) + (1 - sum r) w: one
    ``rhs_dense`` pass over the start's reduction to the letters present,
    bitwise the pass over the whole space where that fits, whose increment
    sums to zero, so mass is kept by construction. A reduction past
    ``DENSE_CAP`` steps entry by entry with the residual clamped at 0. The
    stepped size and the branch are logged at INFO.
    """
    _check_model_space(d, w0)
    if d.style != "probability":
        raise DomainError(
            "discrete-time iteration needs a probability-style model, not rates"
        )
    t = check_count(t, "generation count", minimum=0)
    times = [float(s) for s in range(t + 1)]
    states = [w0]
    red = Reduction(w0)
    if red.space.dense:
        field = _VectorField(d, red.space, red.mass)
        w = red.values
        for _ in range(t):
            w = w + _kernels.rhs_dense(w, field.idx1, field.idx2, field.probs, field.mass(w))
            states.append(red.expand(w))
        log.info("iterate_discrete on %d sites: %d of %d types stepped, %d steps, "
                 "%d right-hand-side evaluations", d.n_sites, red.space.cardinality,
                 w0.space.cardinality, t, t)
        return Trajectory(times, states)
    pairs = [(Partition.one_block(d.ground), d.residual_probability), *d.entries.items()]
    for _ in range(t):  # each support holds the one before
        states.append(states[-1].recombined(pairs))
    log.info("iterate_discrete on %d sites: %d of %d types stepped entry by entry, %d steps",
             w0.space.n_sites, len(dict(states[-1].items())), w0.space.cardinality, t)
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
