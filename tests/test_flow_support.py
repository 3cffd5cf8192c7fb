"""The flow stepped on the letters present at t = 0.

Recombination keeps every one-site marginal, so a letter absent at a site
at t = 0 stays absent, and ``integrate_grid`` and ``iterate_discrete``
step only the product of the letters present in the start.  Each must be
bitwise the step over the whole space kept below as the reference: the
RK4 span and the generation loop over every type, on the full-space
field with the kernel's own mass ``w.sum()``; ``rhs`` is checked against
the same kernel call.
"""

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import (
    DomainError,
    MassDriftError,
    RecombinationDistribution,
    TypeDistribution,
    TypeSpace,
    integrate_grid,
    iterate_discrete,
    rhs,
    solve_exact,
    two_block_partitions,
)
from recomb import _kernels as K
from recomb.dynamics import MASS_TOL, _VectorField

TIMES = [0.0, 0.25, 0.6]
DT = 0.1


def reference_trajectory(d, w0, times, dt):
    """RK4 over every type of the space, as the flow was stepped before
    it kept to the letters present."""
    field = _VectorField(d, w0.space)

    def f(w):
        return K.rhs_dense(w, field.idx1, field.idx2, field.rates)

    w = w0.to_array()
    states = [w.copy()]
    for earlier, later in zip(times, times[1:]):
        duration = remaining = later - earlier
        while remaining > 1e-15 * max(1.0, duration):
            h = dt if dt <= remaining else remaining
            k1 = f(w)
            k2 = f(w + (0.5 * h) * k1)
            k3 = f(w + (0.5 * h) * k2)
            k4 = f(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            remaining -= h
            assert abs(w.sum() - 1.0) <= MASS_TOL
        states.append(w.copy())
    return states


def reference_generations(d, w0, t):
    """t generations w + F_r(w) over every type of the space."""
    field = _VectorField(d, w0.space)
    w = w0.to_array()
    states = [w]
    for _ in range(t):
        w = w + K.rhs_dense(w, field.idx1, field.idx2, field.probs)
        states.append(w)
    return states


def models(n, seed):
    """A rate-style model and a probability-style one with a residual,
    each with every two-block split on n sites."""
    rng = np.random.default_rng(seed)
    ground = tuple(range(1, n + 1))
    splits = two_block_partitions(ground)
    w = rng.uniform(0.1, 1.0, len(splits))
    rates = RecombinationDistribution.from_rates(ground, dict(zip(splits, (1.6 * w / w.sum()).tolist())))
    probs = RecombinationDistribution.from_probabilities(
        ground, 1.3, dict(zip(splits, (0.8 * w / w.sum()).tolist()))
    )
    return rates, probs


def start_on(sizes, letters, seed, share=1.0):
    """A probability distribution on the product of `letters`, with about
    `share` of its types (at least one) carrying mass."""
    rng = np.random.default_rng(seed)
    types = list(itertools.product(*letters))
    keep = max(1, round(share * len(types)))
    picked = rng.choice(len(types), size=keep, replace=False)
    weights = rng.uniform(0.1, 1.0, keep)
    weights /= weights.sum()
    return TypeDistribution(TypeSpace(sizes), {types[i]: float(v) for i, v in zip(picked, weights)})


STARTS = {
    "alphabet3-letters-0-and-2": lambda: start_on([3] * 5, [(0, 2)] * 5, 1),
    "alphabet4-1-to-3-letters": lambda: start_on(
        [4, 4, 4, 4], [(1,), (0, 3), (0, 1, 2), (2, 3)], 2, share=0.6
    ),
    "every-letter": lambda: start_on([2, 3, 2, 2], [range(2), range(3), range(2), range(2)], 3),
    "point-mass": lambda: TypeDistribution.dirac(TypeSpace([2, 3, 3]), (1, 0, 2)),
}


def bits(states):
    return [np.ascontiguousarray(s).tobytes() for s in states]


def assert_flow_is_the_reference(w0, seed):
    rate_model, prob_model = models(w0.space.n_sites, seed)
    got = integrate_grid(rate_model, w0, TIMES, DT)
    assert bits(s.to_array() for s in got.states) == bits(
        reference_trajectory(rate_model, w0, TIMES, DT)
    )
    got = iterate_discrete(prob_model, w0, 4)
    assert bits(s.to_array() for s in got.states) == bits(reference_generations(prob_model, w0, 4))
    for d in (rate_model, prob_model):
        field = _VectorField(d, w0.space)
        want = K.rhs_dense(w0.to_array(), field.idx1, field.idx2, field.rates)
        assert rhs(d, w0).to_array().tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(STARTS))
def test_the_flow_on_the_letters_present_is_bitwise_the_whole_space(name):
    assert_flow_is_the_reference(STARTS[name](), 17)


def test_the_field_steps_the_product_of_the_letters_present():
    w0 = STARTS["alphabet3-letters-0-and-2"]()
    field = _VectorField.reaching(models(5, 1)[0], w0)
    space = w0.space
    want = [space.encode(t) for t in itertools.product((0, 2), repeat=5)]
    assert field.where.tolist() == want  # increasing: the full space's order
    assert field.idx1.shape == (15, 32)


def test_a_point_mass_stays_fixed():
    w0 = STARTS["point-mass"]()
    rate_model, prob_model = models(3, 5)
    for traj in (integrate_grid(rate_model, w0, TIMES, DT), iterate_discrete(prob_model, w0, 3)):
        assert bits(s.to_array() for s in traj.states) == bits([w0.to_array()] * len(traj))


def test_the_zero_measure_iterates_to_itself():
    w0 = TypeDistribution(TypeSpace([3, 2, 2]), {})
    _, prob_model = models(3, 6)
    got = iterate_discrete(prob_model, w0, 3)
    assert bits(s.to_array() for s in got.states) == bits(reference_generations(prob_model, w0, 3))
    assert rhs(prob_model, w0).to_array().tobytes() == np.zeros(12).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_supports_step_bitwise_the_whole_space(data):
    n = data.draw(st.integers(2, 5), label="sites")
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="alphabets")
    letters = [
        sorted(data.draw(st.sets(st.integers(0, s - 1), min_size=1), label=f"letters{i}"))
        for i, s in enumerate(sizes)
    ]
    share = data.draw(st.sampled_from([0.2, 0.5, 1.0]), label="share")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    assert_flow_is_the_reference(start_on(sizes, letters, seed, share), seed)


def test_an_unnormalized_start_still_raises_mass_drift():
    rate_model, _ = models(3, 7)
    heavy = TypeDistribution(TypeSpace([3, 2, 2]), {(0, 0, 0): 1.5, (2, 1, 1): 0.5})
    with pytest.raises(MassDriftError, match="not a probability distribution"):
        integrate_grid(rate_model, heavy, TIMES, DT)


@pytest.mark.parametrize("sizes", [[2, 2], [128, 128, 128]], ids=["dense", "sparse"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_mass_is_refused(sizes, value):
    space = TypeSpace(sizes)
    assert space.dense == (sizes == [2, 2])
    ones = tuple(1 for _ in sizes)
    with pytest.raises(DomainError):
        TypeDistribution(space, {tuple(0 for _ in sizes): value, ones: 1.0})
    with pytest.raises(DomainError):
        TypeDistribution.from_pairs(space, [(ones, value)])


def test_a_nan_start_fails_the_start_check():
    # the constructor refuses NaN; an array built inside the package could
    # still hold one, and abs(nan - 1) > tol is False, so the check reads
    # "not within tol" instead
    space = TypeSpace([2, 2])
    w0 = TypeDistribution._from_dense(space, np.array([math.nan, 0.0, 0.0, 1.0]))
    rate_model, _ = models(2, 8)
    with pytest.raises(MassDriftError):
        integrate_grid(rate_model, w0, TIMES, DT)


def test_the_flow_on_the_letters_present_meets_the_exact_mixture():
    w0 = STARTS["alphabet3-letters-0-and-2"]()
    rate_model, _ = models(5, 9)
    mixed = solve_exact(rate_model, w0, 0.6)
    stepped = integrate_grid(rate_model, w0, [0.0, 0.6], 1e-3).final
    assert mixed.sup_distance(stepped) <= 1e-9


def test_the_stepped_size_is_logged(caplog):
    w0 = STARTS["alphabet3-letters-0-and-2"]()
    rate_model, prob_model = models(5, 10)
    with caplog.at_level(logging.INFO, logger="recomb.dynamics"):
        integrate_grid(rate_model, w0, TIMES, DT)
        iterate_discrete(prob_model, w0, 4)
    assert [r.getMessage() for r in caplog.records] == [
        "integrate_grid on 5 sites: 32 of 243 types stepped, 7 steps, "
        "28 right-hand-side evaluations",
        "iterate_discrete on 5 sites: 32 of 243 types stepped, 4 steps, "
        "4 right-hand-side evaluations",
    ]
