"""Forward dynamics: vector field, fixed-step integration, exact mixture
solution, discrete generations, and the duality identity."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import (
    CoefficientVector,
    DomainError,
    MassDriftError,
    Partition,
    PartitionIndex,
    RecombinationDistribution,
    SizeCapError,
    Trajectory,
    TypeDistribution,
    TypeSpace,
    build_discrete_matrix,
    build_generator,
    check_duality,
    coefficients_discrete,
    coefficients_recursion,
    coefficients_semigroup,
    coefficients_single_crossover,
    compute_psi_theta,
    cut_partition,
    exact_coefficients,
    integrate,
    integrate_grid,
    iterate_discrete,
    mixture_from_coefficients,
    rhs,
    solve_exact,
    two_block_partitions,
)
from recomb import _kernels, dynamics

P = Partition.from_text


# ---------------------------------------------------------------------------
# the vector field
# ---------------------------------------------------------------------------


def test_rhs_two_site_hand_values(model2, space2, w0_2):
    # product of marginals of (1/2, 0, 0, 1/2) is uniform 1/4, so the
    # field at rate 1 is (uniform - w), exactly representable
    inc = rhs(model2, w0_2)
    assert inc.weight((0, 0)) == -0.25
    assert inc.weight((0, 1)) == 0.25
    assert inc.weight((1, 0)) == 0.25
    assert inc.weight((1, 1)) == -0.25
    assert inc.total() == 0.0
    assert inc.to_array() is not inc.values  # defensive copy


def test_rhs_conserves_mass(model3, w0_3, rng):
    inc = rhs(model3, w0_3)
    assert abs(inc.total()) <= 1e-15
    space = w0_3.space
    raw = rng.random(space.cardinality)
    w = TypeDistribution._from_dense(space, raw / raw.sum())
    assert abs(rhs(model3, w).total()) <= 1e-14


def test_rhs_validation(model3, w0_2):
    with pytest.raises(DomainError):
        rhs(model3, w0_2)  # three-site model, two-site distribution
    big = TypeSpace([128, 128, 128])  # past the dense storage cap
    sparse = TypeDistribution.dirac(big, (0, 0, 0))
    with pytest.raises(SizeCapError):
        rhs(model3, sparse)


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


def test_integration_matches_exact_solution(model3, w0_3):
    traj = integrate_grid(model3, w0_3, [0.0, 0.5, 5.0], dt=1e-3)
    for t in (0.5, 5.0):
        exact = solve_exact(model3, w0_3, t)
        assert traj.state_at(t).sup_distance(exact) <= 1e-10


def test_integration_is_fourth_order(model3, w0_3):
    exact = solve_exact(model3, w0_3, 1.0)
    err = {
        dt: integrate(model3, w0_3, 1.0, dt).final.sup_distance(exact)
        for dt in (0.1, 0.05)
    }
    assert err[0.1] / err[0.05] >= 12.0  # ~16 for genuine 4th order


def test_trajectory_invariants(model3, w0_3):
    traj = integrate(model3, w0_3, 2.0, 0.05)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
    assert len(traj) == len(traj.times)
    ref = {s: w0_3.marginal([s]) for s in (1, 2, 3)}
    for when, state in traj:
        assert state.mass == pytest.approx(1.0, abs=1e-12)
        for s in (1, 2, 3):  # single-site marginals are conserved
            assert state.marginal([s]).sup_distance(ref[s]) <= 1e-12
    assert traj.state_at(0.0) is w0_3
    assert traj.final is traj.states[-1]
    with pytest.raises(DomainError):
        traj.state_at(0.123)


def test_integration_validation(model3, w0_3):
    with pytest.raises(DomainError):
        integrate(model3, w0_3, -1.0, 0.1)
    with pytest.raises(DomainError):
        integrate(model3, w0_3, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(model3, w0_3, 1.0, 2.0)  # dt > t_end
    with pytest.raises(DomainError):
        integrate_grid(model3, w0_3, [0.5, 1.0], 0.1)  # must start at 0
    with pytest.raises(DomainError):
        integrate_grid(model3, w0_3, [0.0, 1.0, 1.0], 0.1)  # not increasing
    with pytest.raises(DomainError):
        integrate_grid(model3, w0_3, [], 0.1)


def test_unnormalized_start_raises_mass_drift(model3, space3):
    heavy = TypeDistribution.from_pairs(space3, [((0, 0, 0), 2.0)])
    with pytest.raises(MassDriftError):
        integrate(model3, heavy, 1.0, 0.1)


# ---------------------------------------------------------------------------
# exact mixture solution
# ---------------------------------------------------------------------------


def test_solve_exact_methods_agree(model3, w0_3):
    semi = solve_exact(model3, w0_3, 1.2, method="semigroup")
    rec = solve_exact(model3, w0_3, 1.2, method="recursion")
    assert semi.sup_distance(rec) <= 1e-13

    sc = RecombinationDistribution.single_crossover([0.4, 1.1])
    for t in (0.0, 0.7, 3.0):
        a = solve_exact(sc, w0_3, t, method="semigroup")
        b = solve_exact(sc, w0_3, t, method="recursion")
        c = solve_exact(sc, w0_3, t, method="single_crossover")
        assert a.sup_distance(b) <= 1e-13
        assert a.sup_distance(c) <= 1e-13


def test_solve_exact_time_zero_is_identity(model3, w0_3):
    assert solve_exact(model3, w0_3, 0.0).sup_distance(w0_3) == 0.0


def test_solve_exact_validation(model3, w0_3, w0_2):
    with pytest.raises(DomainError):
        solve_exact(model3, w0_3, 1.0, method="magic")
    with pytest.raises(DomainError):
        solve_exact(model3, w0_3, -0.5)
    with pytest.raises(DomainError):
        solve_exact(model3, w0_2, 1.0)


def test_exact_coefficients_build_once_for_all_times(model3):
    times = [0.0, 0.4, 2.5]
    q = build_generator(model3, PartitionIndex(model3.ground))
    pt = compute_psi_theta(model3)
    semi = exact_coefficients(model3, times, "semigroup")
    rec = exact_coefficients(model3, times, "recursion")
    for t, a, b in zip(times, semi, rec):
        assert np.array_equal(a.values, coefficients_semigroup(q, t).values)
        assert np.array_equal(b.values, coefficients_recursion(pt, t).values)
    d = RecombinationDistribution.single_crossover([0.3, 0.8])
    [closed] = exact_coefficients(d, [1.5], "single_crossover")
    assert np.array_equal(closed.values, coefficients_single_crossover(d, 1.5).values)
    assert exact_coefficients(model3, [], "semigroup") == []
    with pytest.raises(DomainError, match="unknown method"):
        exact_coefficients(model3, [1.0], "magic")


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_exact_routes_refuse_bad_times(model3, w0_3, t):
    d = RecombinationDistribution.single_crossover([0.3, 0.8])
    for method in ("semigroup", "recursion", "single_crossover"):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            exact_coefficients(d, [1.0, t], method)
    q = build_generator(model3, PartitionIndex(model3.ground))
    for route, arg in (
        (coefficients_semigroup, q),
        (coefficients_recursion, compute_psi_theta(model3)),
        (coefficients_single_crossover, d),
    ):
        with pytest.raises(DomainError):
            route(arg, t)
    with pytest.raises(DomainError):
        solve_exact(model3, w0_3, t)
    with pytest.raises(DomainError):
        check_duality(model3, w0_3, P("1|2,3"), t)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_ode_route_refuses_bad_times(model3, w0_3, t):
    with pytest.raises(DomainError, match="finite and nonnegative"):
        integrate(model3, w0_3, t, 0.1)
    with pytest.raises(DomainError, match="finite and nonnegative"):
        integrate_grid(model3, w0_3, [0.0, 0.5, t], 0.1)


@pytest.mark.parametrize(
    "grid", [[0.5, 20.0], [0.0, 20.0, 10.0], [0.0, 20.0, 20.0], [], [0.0, float("inf")]]
)
def test_ode_grid_is_refused_before_any_step(model3, w0_3, monkeypatch, grid):
    # refused before the first span: a span of length 20 at dt = 1e-3 takes
    # seconds to integrate
    def stepped(*args, **kwargs):
        raise AssertionError("integrated before the grid was checked")

    monkeypatch.setattr(dynamics, "_rk4_span", stepped)
    with pytest.raises(DomainError):
        integrate_grid(model3, w0_3, grid, 1e-3)
    with pytest.raises(DomainError):
        Trajectory(grid, [w0_3] * len(grid))


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.1])
def test_ode_route_refuses_bad_steps(model3, w0_3, dt):
    with pytest.raises(DomainError, match="dt must"):
        integrate(model3, w0_3, 0.0, dt)
    with pytest.raises(DomainError, match="dt must"):
        integrate(model3, w0_3, 1.0, dt)
    with pytest.raises(DomainError, match="dt must"):
        integrate_grid(model3, w0_3, [0.0, 1.0], dt)


def test_mixture_ground_mismatch(model2, w0_3):
    from recomb import build_generator, coefficients_semigroup

    q = build_generator(model2, PartitionIndex((1, 2)))
    coeff = coefficients_semigroup(q, 1.0)
    with pytest.raises(DomainError):
        mixture_from_coefficients(coeff, w0_3)


def reference_product_over_blocks(w, a):
    """Recombination along `a` as the measure layer first wrote it: a
    fresh marginal per block, multiplied into a ones array in block
    order, then divided by mass^(m-1)."""
    if a.n_blocks == 1 or w.mass == 0.0:
        return w.to_array()
    sizes = w.space.alphabet_sizes
    nd = np.ones((1,) * len(sizes))
    for b in a.blocks:
        shape = tuple(s if (i + 1) in b else 1 for i, s in enumerate(sizes))
        nd = nd * w.marginal(b).to_array().reshape(shape)
    return nd.ravel() / w.mass ** (a.n_blocks - 1)


def reference_mixture(coefficients, w0):
    """The per-partition sum that memoized block marginals replaced."""
    acc = np.zeros(w0.space.cardinality)
    for a, weight in coefficients.items():
        if weight != 0.0:
            acc += weight * reference_product_over_blocks(w0, a)
    return acc


def _crossover8():
    return RecombinationDistribution.single_crossover([0.3, 1.1, 0.7, 0.2, 0.9, 0.5, 1.4])


def _general5():
    rng = np.random.default_rng(505)
    ground = tuple(range(1, 6))
    rates = {a: float(rng.uniform(0.1, 1.0)) for a in two_block_partitions(ground)}
    return RecombinationDistribution.from_rates(ground, rates)


MIXTURE_CASES = {
    "crossover-8": (_crossover8, [2] * 8),
    "general-5-alphabet-3": (_general5, [3] * 5),
}


@pytest.mark.parametrize("start", ["dirichlet", "zero-mass"])
@pytest.mark.parametrize("name", sorted(MIXTURE_CASES))
def test_mixture_is_bitwise_the_per_partition_sum(name, start):
    build, sizes = MIXTURE_CASES[name]
    d, space = build(), TypeSpace(sizes)
    rng = np.random.default_rng(71)
    if start == "zero-mass":
        w0 = TypeDistribution(space, {})
    else:
        w0 = TypeDistribution._from_dense(space, rng.dirichlet(np.ones(space.cardinality)))
    q = build_generator(d, PartitionIndex(d.ground))
    for t in (0.1, 1.0):
        coefficients = coefficients_semigroup(q, t)
        got = mixture_from_coefficients(coefficients, w0).to_array()
        assert got.tobytes() == reference_mixture(coefficients, w0).tobytes()
    for a in PartitionIndex(d.ground).partitions[::37]:
        got = w0.product_over_blocks(a).to_array()
        assert got.tobytes() == reference_product_over_blocks(w0, a).tobytes()


def test_sparse_and_dense_storage_agree(model3, w0_3):
    # same three-point initial condition embedded in a space too big for
    # dense arrays; the solved weights on the shared support must match
    big = TypeSpace([128, 128, 128])
    w0s = TypeDistribution.from_pairs(
        big, [((0, 0, 0), 0.55), ((1, 1, 1), 0.3), ((0, 1, 0), 0.15)]
    )
    assert not w0s.is_dense
    solved_sparse = solve_exact(model3, w0s, 1.0)
    solved_dense = solve_exact(model3, w0_3, 1.0)
    for ty, v in solved_dense.items():
        assert solved_sparse.weight(ty) == pytest.approx(v, abs=1e-15)
    assert solved_sparse.mass == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# discrete generations
# ---------------------------------------------------------------------------


def test_discrete_step_hand_values(space2, w0_2):
    d = RecombinationDistribution.from_probabilities((1, 2), 1.0, {P("1|2"): 0.5})
    traj = iterate_discrete(d, w0_2, 2)
    assert traj.times == [0.0, 1.0, 2.0]
    assert len(traj.states) == 3
    one_step = traj.state_at(1.0)
    # 0.5 * (1/2, 0, 0, 1/2) + 0.5 * (1/4, 1/4, 1/4, 1/4), all dyadic
    assert np.array_equal(one_step.to_array(), [0.375, 0.125, 0.125, 0.375])
    assert traj.final.mass == pytest.approx(1.0, abs=1e-15)


def test_discrete_iteration_matches_matrix_route(model3, index3, w0_3):
    m = build_discrete_matrix(model3, index3)
    traj = iterate_discrete(model3, w0_3, 4)
    for t in range(5):
        via_matrix = mixture_from_coefficients(coefficients_discrete(m, t), w0_3)
        assert traj.state_at(float(t)).sup_distance(via_matrix) <= 1e-14


def test_discrete_validation(model2, model3, w0_2, w0_3):
    with pytest.raises(DomainError):
        iterate_discrete(model2, w0_2, 3)  # rate-style model
    with pytest.raises(DomainError):
        iterate_discrete(model3, w0_3, -1)
    with pytest.raises(DomainError):
        iterate_discrete(model3, w0_3, 1.5)
    with pytest.raises(DomainError):
        iterate_discrete(model3, w0_2, 2)
    for t in (float("nan"), float("inf"), True):
        with pytest.raises(DomainError):
            iterate_discrete(model3, w0_3, t)
    # a whole float or a numpy integer counts generations like an int
    assert iterate_discrete(model3, w0_3, 2.0).times == [0.0, 1.0, 2.0]
    assert np.array_equal(
        iterate_discrete(model3, w0_3, np.int64(2)).final.to_array(),
        iterate_discrete(model3, w0_3, 2).final.to_array(),
    )


def test_dense_generation_is_one_kernel_pass(model3, w0_3, monkeypatch):
    # a generation is w + F_r(w) on the ODE kernel, not a loop over the
    # model's entries
    calls = {"rhs_dense": 0, "product_over_blocks": 0}
    rhs_dense = _kernels.rhs_dense
    product_over_blocks = TypeDistribution.product_over_blocks

    def counted_rhs_dense(*args):
        calls["rhs_dense"] += 1
        return rhs_dense(*args)

    def counted_product_over_blocks(self, a):
        calls["product_over_blocks"] += 1
        return product_over_blocks(self, a)

    monkeypatch.setattr(_kernels, "rhs_dense", counted_rhs_dense)
    monkeypatch.setattr(TypeDistribution, "product_over_blocks", counted_product_over_blocks)
    iterate_discrete(model3, w0_3, 7)
    assert calls == {"rhs_dense": 7, "product_over_blocks": 0}


def test_discrete_mass_is_kept_on_near_unit_support(w0_3):
    # sum r = 1 + 5e-10 is accepted; a clamped residual would let the mass
    # grow by about 5e-10 per generation
    d = RecombinationDistribution.from_probabilities(
        (1, 2, 3), 1.0, {P("1|2,3"): 0.5, P("1,2|3"): 0.3, P("1,3|2"): 0.2 + 5e-10}
    )
    assert sum(d.entries.values()) > 1.0
    final = iterate_discrete(d, w0_3, 10 ** 4).final
    assert abs(final.mass - 1.0) <= 1e-12


def _relabelled_marginal_model(d, u):
    """The probability-style marginal model of d on the sites u, with u's
    sites renamed 1..|u| in increasing order."""
    rename = {site: k for k, site in enumerate(u, start=1)}
    return RecombinationDistribution.from_probabilities(
        range(1, len(u) + 1),
        d.mu,
        {
            Partition([[rename[s] for s in block] for block in b.blocks]):
                d.marginal_probability(u, b)
            for b in two_block_partitions(u)
        },
    )


@st.composite
def discrete_marginal_cases(draw):
    """A general probability model on n <= 5 sites (some splits at 0, a
    residual that may be 0), a dense start, a site subset U and t <= 20."""
    n = draw(st.sampled_from([5, 4, 3, 2]))
    ground = tuple(range(1, n + 1))
    weight = st.one_of(st.floats(0.05, 2.0), st.just(0.0))
    raw = {a: draw(weight) for a in two_block_partitions(ground)}
    scale = sum(raw.values()) + draw(st.sampled_from([0.0, 0.2, 1.0])) or 1.0
    d = RecombinationDistribution.from_probabilities(
        ground, draw(st.sampled_from([0.5, 1.0])), {a: v / scale for a, v in raw.items()}
    )
    space = TypeSpace(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)))
    weights = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random(
        space.cardinality
    )
    w0 = TypeDistribution._from_dense(space, weights / weights.sum())
    u = tuple(sorted(draw(st.sets(st.sampled_from(ground), min_size=1))))
    return d, w0, u, draw(st.integers(0, 20))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(discrete_marginal_cases())
def test_discrete_generations_restricted_to_a_subset_are_the_marginal_generations(case):
    # the marginal on U of the iterated state is the marginal model on U
    # iterated from the marginal start
    d, w0, u, t = case
    got = iterate_discrete(d, w0, t)
    want = iterate_discrete(_relabelled_marginal_model(d, u), w0.marginal(u), t)
    for s in range(t + 1):
        assert got.states[s].marginal(u).sup_distance(want.states[s]) <= 1e-13, s


def test_sparse_discrete_generations_marginalise(model3):
    # past the dense storage cap the per-entry step runs; its marginals on
    # a dense subspace match the dense kernel's generations
    space = TypeSpace([128, 128, 128])
    w0 = TypeDistribution.from_pairs(
        space, [((0, 0, 0), 0.5), ((5, 7, 1), 0.3), ((127, 3, 9), 0.2)]
    )
    assert not w0.is_dense
    got = iterate_discrete(model3, w0, 6)
    for u in ((1, 3), (2,)):
        start = TypeDistribution.from_pairs(w0.marginal(u).space, w0.marginal(u).items())
        assert start.is_dense
        want = iterate_discrete(_relabelled_marginal_model(model3, u), start, 6)
        for s in range(7):
            assert got.states[s].marginal(u).sup_distance(want.states[s]) <= 1e-13, (u, s)


def test_a_sparse_start_whose_reduction_fits_keeps_its_mass(model3):
    # the 128^3 start holds 3 letters at each site: its 27 reduced types
    # step on the dense kernel, whose increment sums to zero
    space = TypeSpace([128, 128, 128])
    w0 = TypeDistribution.from_pairs(
        space, [((0, 0, 0), 0.5), ((5, 7, 1), 0.3), ((127, 3, 9), 0.2)]
    )
    for state in iterate_discrete(model3, w0, 100).states:
        assert not state.is_dense
        assert abs(state.mass - 1.0) <= 1e-14


def test_a_start_whose_reduction_is_past_the_cap_steps_entry_by_entry(caplog):
    # 21 sites with both letters present at each: 2^21 reduced types; the
    # cuts after sites 7 and 14 mix 3 segment patterns of each type, 27 types
    ground = tuple(range(1, 22))
    d = RecombinationDistribution.from_probabilities(
        ground, 1.0, {cut_partition(21, 7): 0.2, cut_partition(21, 14): 0.3}
    )
    space = TypeSpace([2] * 21)
    w0 = TypeDistribution.from_pairs(
        space, [((0,) * 21, 0.5), ((1,) * 21, 0.3), ((1, 0) * 10 + (1,), 0.2)]
    )
    with caplog.at_level(logging.INFO, logger="recomb.dynamics"):
        got = iterate_discrete(d, w0, 2)
    assert [r.getMessage() for r in caplog.records] == [
        "iterate_discrete on 21 sites: 27 of 2097152 types stepped entry by entry, 2 steps"
    ]
    for u in ((1, 8, 15), (7, 8, 14, 15)):
        sub = w0.marginal(u)
        start = TypeDistribution.from_pairs(sub.space, sub.items())
        want = iterate_discrete(_relabelled_marginal_model(d, u), start, 2)
        for s in range(3):
            assert got.states[s].marginal(u).sup_distance(want.states[s]) <= 1e-15, (u, s)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_duality_holds_on_the_whole_lattice(model3, index3, w0_3):
    for t in (0.5, 2.0):
        worst = max(check_duality(model3, w0_3, b, t) for b in index3)
        assert worst <= 1e-10


def test_duality_validation(model3, w0_3):
    with pytest.raises(DomainError):
        check_duality(model3, w0_3, P("1|2"), 1.0)
