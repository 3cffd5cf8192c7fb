"""The routes run on the letters present at t = 0.

Recombination keeps every one-site marginal, so a letter absent at a site
at t = 0 stays absent, and a Moran offspring carries only its parents'
letters.  ``integrate_grid``, ``iterate_discrete``, the exact mixture and
the forward Moran front doors run on the start's ``Reduction`` to the
product of the letters present.  Each must be bitwise the computation
over the whole space kept below as the reference: the RK4 span and the
generation loop over every type, on the full-space field with the
kernel's own mass ``w.sum()``; the per-partition mixture sum of
``tests/test_dynamics.py``; and the Moran kernels called on the whole
space.  ``rhs`` is checked against the same kernel call.
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
    PopulationState,
    RecombinationDistribution,
    SizeCapError,
    TypeDistribution,
    TypeSpace,
    exact_coefficients,
    integrate_grid,
    iterate_discrete,
    lln_report,
    mixture_from_coefficients,
    rhs,
    simulate_moran_grid,
    solve_exact,
    two_block_partitions,
)
from recomb import _kernels as K
from recomb.dynamics import MASS_TOL, _VectorField
from recomb.measure import Reduction
from test_dynamics import reference_mixture

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
    for coefficients in exact_coefficients(rate_model, TIMES, "semigroup"):
        got = mixture_from_coefficients(coefficients, w0).to_array()
        assert got.tobytes() == reference_mixture(coefficients, w0).tobytes()


@pytest.mark.parametrize("name", sorted(STARTS))
def test_the_flow_on_the_letters_present_is_bitwise_the_whole_space(name):
    assert_flow_is_the_reference(STARTS[name](), 17)


def test_the_field_steps_the_product_of_the_letters_present():
    w0 = STARTS["alphabet3-letters-0-and-2"]()
    red = Reduction(w0)
    space = w0.space
    want = [space.encode(t) for t in itertools.product((0, 2), repeat=5)]
    assert red.where.tolist() == want  # increasing: the full space's order
    assert red.space == TypeSpace([2] * 5)
    assert red.values.tobytes() == w0.to_array()[want].tobytes()
    assert _VectorField(models(5, 1)[0], red.space).idx1.shape == (15, 32)


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


# -- the forward Moran front doors against the kernels on the whole space --


def start_with_more_letters(w0, seed):
    """A start on the same space holding every letter of w0's alphabets
    at a third of its types: the redraws bring letters z0 lacks."""
    return start_on(w0.space.alphabet_sizes, [range(s) for s in w0.space.alphabet_sizes],
                    seed, share=0.3)


MORAN_STARTS = {
    **STARTS,
    "alphabet8-letters-2-and-5": lambda: start_on([8] * 4, [(2, 5)] * 4, 4, share=0.8),
}


@pytest.mark.parametrize("name", sorted(MORAN_STARTS))
def test_the_moran_front_doors_are_bitwise_the_whole_space_kernels(name):
    w0 = MORAN_STARTS[name]()
    d, _ = models(w0.space.n_sites, 11)
    masks, probs = d.event_arrays()
    space = w0.space
    full = (space.places, space.alphabet_sizes, masks, probs, d.mu)
    z0 = PopulationState.from_distribution(w0, 60)
    times = [0.1, 0.4]
    got = simulate_moran_grid(d, z0, times, 3, replicates=3, first_replicate=2)
    want = K.moran_batch(z0.counts, *full, times, 3, 3, rep_lo=2)
    assert got.tobytes() == want.tobytes()
    other = start_with_more_letters(w0, 12)
    got = simulate_moran_grid(d, z0, times, 5, replicates=3, multinomial_from=other)
    redraw = other.to_array() / other.to_array().sum()
    want = K.moran_batch(z0.counts, *full, times, 5, 3, multinomial_from=redraw)
    assert got.tobytes() == want.tobytes()
    report = lln_report(d, w0, 0.4, [30, 90], 3, 7)
    target = reference_mixture(exact_coefficients(d, [0.4], "semigroup")[0], w0)
    tvs = [K.moran_tv_batch(w0.to_array(), target, n, *full, 0.4, 7, 3) for n in (30, 90)]
    assert np.array(report.mean_tv).tobytes() == np.array([tv.mean() for tv in tvs]).tobytes()
    assert np.array(report.sd_tv).tobytes() == np.array([tv.std(ddof=1) for tv in tvs]).tobytes()


# -- a start past the dense storage cap whose reduction fits ----------------


def test_a_past_cap_start_with_two_varying_sites_runs_dense():
    # 21 biallelic sites, letters varying only at sites 1 and 21: 4 reduced
    # types. Every positive cut separates sites 1 and 21 and leaves the
    # other sites fixed, so w_t = e^{-rho t} w_0 + (1 - e^{-rho t})
    # mu_1 x mu_21 x delta_rest, with rho the sum of the cut rates.
    cuts = [0.0] * 20
    for k, rate in ((1, 0.4), (6, 0.3), (11, 0.5), (15, 0.2), (20, 0.6)):
        cuts[k - 1] = rate
    d = RecombinationDistribution.single_crossover(cuts)
    space = TypeSpace([2] * 21)
    assert not space.dense

    def typ(first, last):
        return (first,) + (0,) * 19 + (last,)

    w0 = TypeDistribution.from_pairs(space, [(typ(0, 0), 0.7), (typ(1, 1), 0.3)])
    assert Reduction(w0).space == TypeSpace([2] + [1] * 19 + [2])
    t = 0.7
    stay = math.exp(-sum(cuts) * t)
    mu = {0: 0.7, 1: 0.3}  # the one-site marginal at sites 1 and 21
    want = TypeDistribution.from_pairs(
        space,
        [(ty, stay * v) for ty, v in w0.items()]
        + [(typ(a, b), (1.0 - stay) * mu[a] * mu[b]) for a in (0, 1) for b in (0, 1)],
    )
    exact = solve_exact(d, w0, t)
    assert not exact.is_dense
    assert exact.sup_distance(want) <= 1e-12
    stepped = integrate_grid(d, w0, [0.0, t], 1e-3).final
    assert not stepped.is_dense
    assert stepped.sup_distance(want) <= 1e-9
    with pytest.raises(SizeCapError):
        rhs(d, w0)
