"""The refinement process on the partition lattice: generator, semigroup,
exponential-mixture recursion, cut-only product form, and the Monte Carlo
sampler.

The matrix-exponential oracle rows below were computed with an independent
dense expm (scipy, run separately) on the hand-written generator of the
three-site reference model before this package produced any numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recomb import (
    CoefficientVector,
    DomainError,
    NonGenericRatesError,
    Partition,
    PartitionIndex,
    PartitionMatrix,
    RecombinationDistribution,
    build_discrete_matrix,
    build_generator,
    coefficients_discrete,
    coefficients_recursion,
    coefficients_semigroup,
    coefficients_single_crossover,
    compute_psi_theta,
    exit_rate,
    partition_frequencies,
    partitioning_history,
    simulate_partitioning,
    transition_semigroup,
    two_block_partitions,
)
from recomb import _kernels
from recomb.ancestral import _poisson_weights

P = Partition.from_text

# independent expm rows for the reference model, index order
# [1,2,3 | 1|2,3 | 1,2|3 | 1,3|2 | 1|2|3]
ORACLE_ROWS = {
    0.5: (
        0.6065306597126334,
        0.09815743000608002,
        0.17227012335877145,
        0.06378938632300588,
        0.05925240059950925,
    ),
    1.0: (
        0.36787944117144233,
        0.1287058626199672,
        0.2386512185411911,
        0.08144952294577926,
        0.18331395472162013,
    ),
    5.0: (
        0.006737946999085467,
        0.023459436423233032,
        0.07534705162481291,
        0.011577691889648547,
        0.882877873063219,
    ),
}


@pytest.fixture(scope="module")
def q3(model3, index3):
    return build_generator(model3, index3)


# ---------------------------------------------------------------------------
# exit rates and the generator
# ---------------------------------------------------------------------------


def test_exit_rates_frozen(model3):
    assert exit_rate(model3, P("1,2,3")) == pytest.approx(1.0, abs=1e-15)
    assert exit_rate(model3, P("1|2,3")) == pytest.approx(0.7, abs=1e-15)
    assert exit_rate(model3, P("1,2|3")) == pytest.approx(0.5, abs=1e-15)
    assert exit_rate(model3, P("1,3|2")) == pytest.approx(0.8, abs=1e-15)
    assert exit_rate(model3, P("1|2|3")) == 0.0
    with pytest.raises(DomainError):
        exit_rate(model3, P("1|2"))


def test_generator_structure(model3, index3, q3):
    v = q3.values
    assert np.max(np.abs(v.sum(axis=1))) <= 1e-15
    for i, a in enumerate(index3):
        assert v[i, i] == pytest.approx(-exit_rate(model3, a), abs=1e-15)
    off = v - np.diag(np.diag(v))
    assert np.all(off >= 0.0)
    assert np.array_equal(v, np.triu(v))  # strictly coarse-to-fine
    for i, a in enumerate(index3):
        for j, b in enumerate(index3):
            if i != j and v[i, j] != 0.0:
                assert b.refines(a) and b != a


def test_generator_first_row_frozen(q3):
    assert q3.row(P("1,2,3")) == pytest.approx(
        [-1.0, 0.3, 0.5, 0.2, 0.0], abs=1e-15
    )
    assert q3.entry(P("1|2,3"), P("1|2|3")) == pytest.approx(0.7, abs=1e-15)
    assert q3.entry(P("1|2|3"), P("1|2|3")) == 0.0


def test_generator_ground_mismatch(model3):
    with pytest.raises(DomainError):
        build_generator(model3, PartitionIndex((1, 2)))


def test_partition_matrix_validation(index3):
    with pytest.raises(DomainError):
        PartitionMatrix(index3, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        CoefficientVector(index3, np.zeros(3))


# ---------------------------------------------------------------------------
# semigroup route
# ---------------------------------------------------------------------------


def test_semigroup_matches_independent_expm(q3, index3):
    for t, row in ORACLE_ROWS.items():
        got = coefficients_semigroup(q3, t).values
        assert np.max(np.abs(got - np.array(row))) <= 1e-13
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_transition_semigroup_is_stochastic_and_multiplicative(q3):
    p0 = transition_semigroup(q3, 0.0)
    assert np.allclose(p0.values, np.eye(5), atol=1e-15)
    ps = transition_semigroup(q3, 0.7)
    pt = transition_semigroup(q3, 1.6)
    pst = transition_semigroup(q3, 2.3)
    assert np.all(ps.values >= -1e-15)
    assert np.max(np.abs(ps.values.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(ps.values @ pt.values - pst.values)) <= 1e-12


def test_semigroup_rows_match_started_coefficients(q3, index3):
    pt = transition_semigroup(q3, 1.3)
    for a in index3:
        started = coefficients_semigroup(q3, 1.3, start=a).values
        assert np.max(np.abs(started - pt.row(a))) <= 1e-13


def test_long_horizon_uniformization_chunks(q3, index3):
    # lambda * t = 600 forces the chunked Poisson accumulation
    p600 = transition_semigroup(q3, 600.0)
    p300 = transition_semigroup(q3, 300.0)
    assert np.max(np.abs(p300.values @ p300.values - p600.values)) <= 1e-12
    a = coefficients_semigroup(q3, 600.0)
    assert a.value(index3.finest) == pytest.approx(1.0, abs=1e-12)
    assert a.total() == pytest.approx(1.0, abs=1e-12)


def test_poisson_series_stops_when_rounding_stalls_the_sum(q3):
    # at lambda*t = 30.7639 rounding holds the running weight sum just
    # under 1 - 1e-15, so a mass-only stop would take 4077 terms
    lt = 30.7639
    weights = _poisson_weights(lt)
    assert len(weights) <= 100
    assert sum(weights) == pytest.approx(1.0, abs=1e-14)
    expm = pytest.importorskip("scipy.linalg").expm
    q = q3.values
    assert -q.diagonal().min() == 1.0  # lambda = 1, so lambda * t = t
    got = transition_semigroup(q3, lt).values
    assert np.max(np.abs(got - expm(lt * q))) <= 1e-13


@st.composite
def marginal_cases(draw):
    """A general model on n <= 6 sites (some splits at rate 0, a residual
    rate), a nonempty site subset U and a time."""
    n = draw(st.sampled_from([6, 5, 4, 3, 2]))
    ground = tuple(range(1, n + 1))
    rate = st.one_of(st.floats(0.05, 2.0), st.just(0.0))
    rates = {a: draw(rate) for a in two_block_partitions(ground)}
    d = RecombinationDistribution.from_rates(ground, rates, draw(st.floats(0.1, 1.0)))
    u = tuple(sorted(draw(st.sets(st.sampled_from(ground), min_size=1))))
    return d, u, draw(st.sampled_from([0.3, 1.0, 5.0]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(marginal_cases())
def test_semigroup_restricted_to_a_subset_is_the_marginal_semigroup(case):
    # restricting the partitioning process to U gives the partitioning
    # process of the marginal model on U
    d, u, t = case
    restricted: dict[Partition, float] = {}
    for a, w in coefficients_semigroup(build_generator(d, PartitionIndex(d.ground)), t).items():
        b = a.restrict(u)
        restricted[b] = restricted.get(b, 0.0) + w
    marginal = RecombinationDistribution.from_rates(
        u,
        {b: d.marginal_rate(u, b) for b in two_block_partitions(u)},
        d.marginal_rate(u, Partition.one_block(u)),
    )
    want = coefficients_semigroup(build_generator(marginal, PartitionIndex(u)), t)
    assert len(restricted) == len(want.index)
    for b, w in want.items():
        assert abs(restricted[b] - w) <= 1e-12, (b, t)


def test_negative_time_rejected(q3, model3):
    with pytest.raises(DomainError):
        coefficients_semigroup(q3, -0.1)
    with pytest.raises(DomainError):
        transition_semigroup(q3, -1.0)
    with pytest.raises(DomainError):
        coefficients_single_crossover(
            RecombinationDistribution.single_crossover([1.0]), -1.0
        )
    with pytest.raises(DomainError):
        coefficients_recursion(compute_psi_theta(model3), -2.0)


# ---------------------------------------------------------------------------
# exponential-mixture recursion
# ---------------------------------------------------------------------------


def test_recursion_matches_semigroup(model3, q3):
    pt = compute_psi_theta(model3)
    for t in (0.0, 0.3, 1.0, 4.0):
        a = coefficients_semigroup(q3, t).values
        b = coefficients_recursion(pt, t).values
        assert np.max(np.abs(a - b)) <= 1e-13


def test_mixture_weights_collapse_to_start_at_time_zero(model3, index3):
    pt = compute_psi_theta(model3)
    at0 = coefficients_recursion(pt, 0.0)
    expected = np.zeros(len(index3))
    expected[index3.index_of(index3.one)] = 1.0
    assert np.max(np.abs(at0.values - expected)) <= 1e-12


def test_mixture_weights_only_on_refining_pairs(model3):
    pt = compute_psi_theta(model3)
    for (a, b), w in pt.ground_table().items():
        assert a.refines(b)
        assert w != 0.0


def test_two_site_mixture_weights_by_hand(model2):
    # psi(1|2) = 0, psi(whole) = 1; weights: theta(1|2, 1|2) = 1,
    # theta(1|2, whole) = -1, theta(whole, whole) = 1
    pt = compute_psi_theta(model2)
    assert pt.theta(P("1|2"), P("1|2")) == pytest.approx(1.0, abs=1e-15)
    assert pt.theta(P("1|2"), P("1,2")) == pytest.approx(-1.0, abs=1e-15)
    assert pt.theta(P("1,2"), P("1,2")) == pytest.approx(1.0, abs=1e-15)
    assert pt.theta(P("1,2"), P("1|2")) == 0.0
    assert pt.psi(P("1|2")) == 0.0
    assert pt.psi(P("1,2")) == pytest.approx(1.0, abs=1e-15)


def test_two_site_closed_form_frozen():
    d = RecombinationDistribution.from_rates((1, 2), {P("1|2"): 0.4})
    q = build_generator(d, PartitionIndex((1, 2)))
    pt = compute_psi_theta(d)
    expected = (0.6703200460356392, 0.3296799539643608)  # (e^-0.4, 1 - e^-0.4)
    for route in (
        coefficients_semigroup(q, 1.0),
        coefficients_recursion(pt, 1.0),
        coefficients_single_crossover(d, 1.0),
    ):
        assert route.values == pytest.approx(expected, abs=1e-15)


def test_tied_exit_rates_refused():
    with pytest.raises(NonGenericRatesError):
        compute_psi_theta(RecombinationDistribution.single_crossover([0.5, 0.5]))


def test_ties_outside_the_reachable_set_are_harmless():
    """Cut-only models structurally tie the exit rates of unreachable
    states (for three sites, psi(1,3|2) always equals psi of the whole
    set); the recursion must still run and must put weight zero there."""
    d = RecombinationDistribution.single_crossover([0.4, 1.3])
    pt = compute_psi_theta(d)
    assert pt.psi(P("1,3|2")) == pytest.approx(pt.psi(P("1,2,3")), rel=1e-15)
    q = build_generator(d, PartitionIndex((1, 2, 3)))
    for t in (0.2, 1.0, 7.0):
        semi = coefficients_semigroup(q, t)
        rec = coefficients_recursion(pt, t)
        closed = coefficients_single_crossover(d, t)
        assert np.max(np.abs(semi.values - rec.values)) <= 1e-13
        assert np.max(np.abs(semi.values - closed.values)) <= 1e-13
        assert rec.value(P("1,3|2")) == 0.0
        assert semi.value(P("1,3|2")) == 0.0


# ---------------------------------------------------------------------------
# cut-only product form
# ---------------------------------------------------------------------------


def test_single_crossover_product_form_by_hand():
    d = RecombinationDistribution.single_crossover([0.3, 0.7])
    a = coefficients_single_crossover(d, 2.0)
    s1 = np.exp(-2.0 * 0.3)
    s2 = np.exp(-2.0 * 0.7)
    assert a.value(P("1,2,3")) == pytest.approx(s1 * s2, rel=1e-15)
    assert a.value(P("1|2,3")) == pytest.approx((1 - s1) * s2, rel=1e-15)
    assert a.value(P("1,2|3")) == pytest.approx(s1 * (1 - s2), rel=1e-15)
    assert a.value(P("1|2|3")) == pytest.approx((1 - s1) * (1 - s2), rel=1e-15)
    assert a.value(P("1,3|2")) == 0.0
    assert a.total() == pytest.approx(1.0, abs=1e-14)


def test_single_crossover_form_rejects_general_models(model3):
    with pytest.raises(DomainError):
        coefficients_single_crossover(model3, 1.0)


# ---------------------------------------------------------------------------
# discrete-generation coefficients
# ---------------------------------------------------------------------------


def test_coefficients_discrete_basics(model3, index3):
    from recomb import build_discrete_matrix

    m = build_discrete_matrix(model3, index3)
    at0 = coefficients_discrete(m, 0)
    assert at0.value(index3.one) == 1.0 and at0.total() == 1.0
    at2 = coefficients_discrete(m, 2)
    v = np.zeros(len(index3))
    v[index3.index_of(index3.one)] = 1.0
    assert np.max(np.abs(at2.values - v @ m.values @ m.values)) <= 1e-15
    with pytest.raises(DomainError):
        coefficients_discrete(m, -1)
    with pytest.raises(DomainError):
        coefficients_discrete(m, 1.5)
    for t in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            coefficients_discrete(m, t)


def test_coefficients_discrete_starts_at_the_first_state_without_listing_partitions(model3):
    index = PartitionIndex(model3.ground)
    m = build_discrete_matrix(model3, index)
    one = Partition.one_block(model3.ground)
    for t in (0, 1, 5):
        got = coefficients_discrete(m, t).values
        assert got.tobytes() == coefficients_discrete(m, t, one).values.tobytes()
    assert index._partitions is None


@pytest.mark.parametrize("build", [build_generator, build_discrete_matrix])
def test_builders_refuse_an_index_missing_a_state_the_model_steps_to(build):
    d = RecombinationDistribution.from_probabilities(
        (1, 2, 3), 1.0, {P("1|2,3"): 0.3, P("1,2|3"): 0.5}
    )
    with pytest.raises(DomainError, match="misses a state"):
        build(d, PartitionIndex.from_states((1, 2, 3), [(7,)]))


# ---------------------------------------------------------------------------
# Monte Carlo sampler
# ---------------------------------------------------------------------------


def test_sampled_partition_refines_start(model3):
    one = Partition.one_block((1, 2, 3))
    out = simulate_partitioning(model3, one, 1.0, seed=3)
    assert out.refines(one)
    assert simulate_partitioning(model3, one, 1.0, seed=3) == out  # reproducible
    assert simulate_partitioning(model3, one, 0.0, seed=3) == one
    finest = Partition.singletons((1, 2, 3))
    assert simulate_partitioning(model3, finest, 5.0, seed=3) == finest


def test_sampler_frequencies_match_exact_law(model3, index3, q3):
    reps = 20000
    freq = partition_frequencies(model3, 1.0, reps, seed=4242)
    assert sum(freq.values()) == reps
    exact = coefficients_semigroup(q3, 1.0)
    for a in index3:
        p = exact.value(a)
        emp = freq.get(a, 0) / reps
        se = np.sqrt(max(p * (1 - p), 1e-300) / reps)
        assert abs(emp - p) <= 4.0 * se, f"{a.to_text()}: emp {emp} vs exact {p}"


def test_sampler_history_is_a_refining_path(model3):
    one = Partition.one_block((1, 2, 3))
    for rep in range(6):
        hist = partitioning_history(model3, one, 3.0, seed=99, replicate=rep)
        prev_t, prev_p = 0.0, one
        for when, state in hist:
            assert prev_t < when <= 3.0
            assert state.refines(prev_p) and state != prev_p
            prev_t, prev_p = when, state
        end = hist[-1][1] if hist else one
        assert end == simulate_partitioning(model3, one, 3.0, seed=99) or rep != 0


def test_history_final_state_matches_batch_sampler(model3):
    one = Partition.one_block((1, 2, 3))
    for rep in range(5):
        hist = partitioning_history(model3, one, 1.5, seed=31, replicate=rep)
        end = hist[-1][1] if hist else one
        # the batch sampler's replicate `rep` consumes the same stream
        masks, probs = model3.event_arrays()
        rows = _kernels.partition_batch(
            masks, probs * model3.mu, 3, one.as_masks(), 1.5, 31, rep + 1
        )
        assert Partition.from_labels(rows[rep], (1, 2, 3)) == end


def test_sampler_beyond_the_lattice_cap():
    # twelve sites: Bell(12) is far past the exact-method cap, but the
    # event-driven sampler never enumerates the lattice
    d = RecombinationDistribution.single_crossover(np.linspace(0.2, 1.3, 11))
    freq = partition_frequencies(d, 0.8, 2000, seed=5)
    assert sum(freq.values()) == 2000
    assert all(p.is_interval() for p in freq)


# front door -> (the least valid count, a call passing the count v)
COUNT_CALLS = {
    "partition_frequencies-n_replicates": (
        1, lambda d, v: partition_frequencies(d, 1.0, v, seed=0)
    ),
    "partitioning_history-replicate": (
        0, lambda d, v: partitioning_history(d, Partition.one_block(d.ground), 1.0, 0, v)
    ),
    "coefficients_discrete-t": (
        0,
        lambda d, v: coefficients_discrete(
            build_discrete_matrix(d, PartitionIndex(d.ground)), v
        ),
    ),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "nan", "below"])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_counts_must_be_whole(model3, monkeypatch, name, bad):
    def reached(*args, **kwargs):
        raise AssertionError("a kernel ran before the arguments were checked")

    for kernel in ("partition_batch", "partition_history"):
        monkeypatch.setattr(_kernels, kernel, reached)
    minimum, call = COUNT_CALLS[name]
    value = {"fraction": 2.5, "bool": True, "nan": float("nan"), "below": minimum - 1}[bad]
    with pytest.raises(DomainError, match="whole number|>= "):
        call(model3, value)


def test_sampler_validation(model3):
    one = Partition.one_block((1, 2, 3))
    with pytest.raises(DomainError):
        simulate_partitioning(model3, one, -1.0, seed=0)
    with pytest.raises(DomainError):
        simulate_partitioning(model3, Partition.one_block((1, 2)), 1.0, seed=0)
    with pytest.raises(DomainError):
        partition_frequencies(model3, 1.0, 0, seed=0)
    with pytest.raises(DomainError):
        partitioning_history(model3, one, -1.0, seed=0)
    with pytest.raises(DomainError):
        partitioning_history(model3, P("1,2|5"), 1.0, seed=0)
