"""Finite-population models: the forward resampling process, its
single-event law, the law-of-large-numbers report, and the backward
ancestry process with founder reconstruction."""

import math

import numpy as np
import pytest

from recomb import (
    AncestralState,
    DomainError,
    Partition,
    PopulationState,
    RecombinationDistribution,
    SizeCapError,
    TypeDistribution,
    TypeSpace,
    ancestry_reconstruct,
    arg_partition_frequencies,
    arg_replicates,
    lln_report,
    moran_event_counts,
    partition_frequencies,
    reconstruct_replicates,
    simulate_arg,
    simulate_moran,
    simulate_moran_grid,
    solve_exact,
)

P = Partition.from_text


# ---------------------------------------------------------------------------
# population states
# ---------------------------------------------------------------------------


def test_population_state_basics(space3):
    z = PopulationState(space3, {(0, 0, 0): 3, (1, 1, 1): 2, (0, 0, 0): 3})
    assert z.N == 5
    assert z.count((0, 0, 0)) == 3
    assert z.count((0, 1, 0)) == 0
    freq = z.frequencies()
    assert freq.mass == pytest.approx(1.0, abs=1e-15)
    assert freq.weight((1, 1, 1)) == pytest.approx(0.4, abs=1e-15)
    assert z == PopulationState(space3, z.counts)
    with pytest.raises(DomainError):
        PopulationState(space3, {(0, 0, 0): -1})
    with pytest.raises(DomainError):
        PopulationState(space3, np.zeros(3, dtype=np.int64))
    with pytest.raises(DomainError):
        PopulationState(space3, np.zeros(space3.cardinality, dtype=np.int64))
    with pytest.raises(SizeCapError):
        PopulationState(TypeSpace([128, 128, 128]), {(0, 0, 0): 1})


def test_from_distribution_round_mode(w0_3):
    # N = 20 scales (0.55, 0.3, 0.15) to integers exactly
    z = PopulationState.from_distribution(w0_3, 20)
    assert (z.count((0, 0, 0)), z.count((1, 1, 1)), z.count((0, 1, 0))) == (11, 6, 3)
    # N = 7: floors (3, 2, 1) leave one slot, largest remainder 0.85 wins
    z7 = PopulationState.from_distribution(w0_3, 7)
    assert (z7.count((0, 0, 0)), z7.count((1, 1, 1)), z7.count((0, 1, 0))) == (4, 2, 1)
    assert z7.N == 7


def test_from_distribution_multinomial_mode(w0_3, space3):
    z = PopulationState.from_distribution(w0_3, 200, mode="multinomial", seed=5)
    assert z.N == 200
    assert z == PopulationState.from_distribution(w0_3, 200, mode="multinomial", seed=5)
    other = PopulationState.from_distribution(w0_3, 200, mode="multinomial", seed=6)
    assert z != other
    support = {space3.encode(t) for t, v in w0_3.items() if v > 0}
    assert set(np.nonzero(z.counts)[0]).issubset(support)
    with pytest.raises(DomainError):
        PopulationState.from_distribution(w0_3, 10, mode="bogus")
    with pytest.raises(DomainError):
        PopulationState.from_distribution(w0_3, 0)
    with pytest.raises(DomainError):
        PopulationState.from_distribution(
            TypeDistribution.from_pairs(space3, []), 5
        )


# ---------------------------------------------------------------------------
# forward process
# ---------------------------------------------------------------------------


def test_simulate_moran_conserves_and_reproduces(model3, w0_3):
    z0 = PopulationState.from_distribution(w0_3, 100)
    same = simulate_moran(model3, z0, 0.0, seed=7)
    assert same == z0
    z1 = simulate_moran(model3, z0, 1.0, seed=7)
    assert z1.N == 100
    assert z1 == simulate_moran(model3, z0, 1.0, seed=7)
    assert z1 != simulate_moran(model3, z0, 1.0, seed=8)
    with pytest.raises(DomainError):
        simulate_moran(model3, z0, -1.0, seed=7)


def test_moran_grid_shape_and_determinism(model3, w0_3, space3):
    z0 = PopulationState.from_distribution(w0_3, 50)
    out = simulate_moran_grid(model3, z0, [0.25, 0.5, 1.0], seed=11, replicates=5)
    assert out.shape == (5, 3, space3.cardinality)
    assert (out.sum(axis=2) == 50).all()
    again = simulate_moran_grid(model3, z0, [0.25, 0.5, 1.0], seed=11, replicates=5)
    assert np.array_equal(out, again)
    assert not np.array_equal(
        out, simulate_moran_grid(model3, z0, [0.25, 0.5, 1.0], seed=12, replicates=5)
    )
    redraw = simulate_moran_grid(
        model3, z0, [0.5], seed=11, replicates=4, multinomial_from=w0_3
    )
    assert redraw.shape == (4, 1, space3.cardinality)
    assert (redraw.sum(axis=2) == 50).all()


def test_moran_grid_validation(model3, w0_3, space2, w0_2):
    z0 = PopulationState.from_distribution(w0_3, 20)
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z0, [], seed=1)
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z0, [1.0, 0.5], seed=1)
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z0, [-0.5, 1.0], seed=1)
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z0, [1.0], seed=1, replicates=0)
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z0, [1.0], seed=1, multinomial_from=w0_2)
    z2 = PopulationState(space2, {(0, 0): 4})
    with pytest.raises(DomainError):
        simulate_moran_grid(model3, z2, [1.0], seed=1)


NON_FINITE_CALLS = {
    "simulate_moran": lambda d, w, z, t: simulate_moran(d, z, t, seed=1),
    "simulate_moran_grid": lambda d, w, z, t: simulate_moran_grid(d, z, [t], seed=1),
    "simulate_moran_grid-last": lambda d, w, z, t: simulate_moran_grid(
        d, z, [0.5, t], seed=1
    ),
    "lln_report": lambda d, w, z, t: lln_report(d, w, t, [10, 20], 2, seed=1),
    "simulate_arg": lambda d, w, z, t: simulate_arg(d, 20, t, seed=1),
    "arg_replicates": lambda d, w, z, t: arg_replicates(d, 20, t, 1, 2),
    "ancestry_reconstruct": lambda d, w, z, t: ancestry_reconstruct(d, z, t, seed=1),
    "reconstruct_replicates": lambda d, w, z, t: reconstruct_replicates(d, z, t, 1, 2),
}


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_samplers_refuse_non_finite_times(model3, w0_3, name, t):
    # `t < 0` and `b <= a` are false for NaN, and a window of infinite
    # length never ends: these calls must be refused, not run forever
    z0 = PopulationState.from_distribution(w0_3, 20)
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE_CALLS[name](model3, w0_3, z0, t)


def test_partition_sampler_runs_to_singletons_at_infinite_time(model3):
    # unlike the samplers above, the refinement chain stops by itself: at
    # t = inf every replicate ends in singletons
    singletons = Partition.from_text("1|2|3")
    assert partition_frequencies(model3, math.inf, 50, seed=3) == {singletons: 50}
    with pytest.raises(DomainError):
        partition_frequencies(model3, math.nan, 50, seed=3)


def test_single_event_law_two_sites(space2):
    """With two sites, two individuals 00 and 11, and crossover probability
    0.6, the offspring type law is (0.35, 0.15, 0.15, 0.35) and the dying
    individual is uniform over the two present types, independently."""
    d = RecombinationDistribution.from_probabilities((1, 2), 1.0, {P("1|2"): 0.6})
    z0 = PopulationState(space2, {(0, 0): 1, (1, 1): 1})
    n_events = 40000
    table = moran_event_counts(d, z0, n_events, seed=2024)
    assert table.shape == (4, 4)
    assert table.sum() == n_events
    assert table[1].sum() == 0 and table[2].sum() == 0  # absent types never die
    offspring = (0.35, 0.15, 0.15, 0.35)
    for i in (0, 3):
        for j in range(4):
            p = 0.5 * offspring[j]
            emp = table[i, j] / n_events
            se = np.sqrt(p * (1 - p) / n_events)
            assert abs(emp - p) <= 4.0 * se, f"cell ({i},{j}): {emp} vs {p}"
    with pytest.raises(DomainError):
        moran_event_counts(d, z0, 0, seed=1)


def test_lln_report_scaling_and_common_random_numbers(model3, w0_3):
    rep = lln_report(model3, w0_3, 1.0, [50, 200], replicates=30, seed=8)
    assert rep.population_sizes == [50, 200]
    assert len(rep.mean_tv) == len(rep.sd_tv) == 2
    assert rep.mean_tv[0] > rep.mean_tv[1] > 0  # noise shrinks with N
    assert rep.slope < 0
    assert set(rep.to_dict()) == {
        "t", "replicates", "population_sizes", "mean_tv", "sd_tv", "slope"
    }
    # common random numbers: the N=50 column never depends on which other
    # sizes were requested
    alone = lln_report(model3, w0_3, 1.0, [50], replicates=30, seed=8)
    assert alone.mean_tv[0] == rep.mean_tv[0]
    assert np.isnan(alone.slope)


def test_lln_report_validation(model3, w0_3, space3):
    with pytest.raises(DomainError):
        lln_report(model3, w0_3, 1.0, [], replicates=5, seed=1)
    with pytest.raises(DomainError):
        lln_report(model3, w0_3, 1.0, [0, 10], replicates=5, seed=1)
    with pytest.raises(DomainError):
        lln_report(model3, w0_3, 1.0, [10], replicates=0, seed=1)
    with pytest.raises(DomainError):
        lln_report(model3, w0_3, -1.0, [10], replicates=5, seed=1)
    heavy = TypeDistribution.from_pairs(space3, [((0, 0, 0), 2.0)])
    with pytest.raises(DomainError):
        lln_report(model3, heavy, 1.0, [10], replicates=5, seed=1)


# ---------------------------------------------------------------------------
# backward process
# ---------------------------------------------------------------------------


def test_ancestral_state_invariants():
    st = AncestralState((1, 2, 3), [((2,), 0), ((1,), 0), ((3,), 1)])
    assert st.n_ancestors == 2
    assert st.site_partition() == P("1|2|3")
    assert st.ancestor_partition() == P("1,2|3")
    assert st.site_partition().refines(st.ancestor_partition())
    assert "1#0" in repr(st)
    with pytest.raises(DomainError):
        AncestralState((1, 2, 3), [((1, 2), 0), ((2, 3), 1)])  # site 2 twice
    with pytest.raises(DomainError):
        AncestralState((1, 2, 3), [((1, 2), 0)])  # site 3 uncovered


def test_simulate_arg_basics(model3):
    at0 = simulate_arg(model3, 100, 0.0, seed=9)
    assert at0.n_ancestors == 1
    assert at0.site_partition() == Partition.one_block((1, 2, 3))
    st = simulate_arg(model3, 100, 2.0, seed=9)
    assert st.site_partition().ground == (1, 2, 3)
    assert st.site_partition().refines(Partition.one_block((1, 2, 3)))
    assert 1 <= st.n_ancestors <= 100
    assert repr(st) == repr(simulate_arg(model3, 100, 2.0, seed=9))
    with pytest.raises(DomainError):
        simulate_arg(model3, 0, 1.0, seed=9)
    with pytest.raises(DomainError):
        simulate_arg(model3, 10, -1.0, seed=9)


def test_simulate_arg_matches_batch_rows(model3):
    rows, ancestors = arg_replicates(model3, 50, 1.5, seed=13, n_replicates=8)
    assert rows.shape == (8, 3)
    for r in range(8):
        st = simulate_arg(model3, 50, 1.5, seed=13, replicate=r)
        groups: dict[int, list[int]] = {}
        for posn, label in enumerate(rows[r]):
            groups.setdefault(int(label), []).append(posn + 1)
        assert st.site_partition() == Partition(groups.values())
        assert st.n_ancestors == int(ancestors[r])


def test_arg_partition_frequencies_match_lattice_limit(model2):
    """For two sites at rate 1, the split probability by time 1 is
    1 - e^-1; a population of 5000 makes the finite-size correction
    (order 1/N) invisible next to the Monte Carlo error."""
    reps = 20000
    freq = arg_partition_frequencies(model2, 5000, 1.0, seed=21, n_replicates=reps)
    assert sum(freq.values()) == reps
    p = 1.0 - np.exp(-1.0)
    emp = freq.get(P("1|2"), 0) / reps
    se = np.sqrt(p * (1 - p) / reps)
    assert abs(emp - p) <= 4.0 * se, f"split frequency {emp} vs {p}"


def test_reconstruction_from_monomorphic_population(model3, space3):
    # every founder is identical, so ancestry assembly can only return it
    z0 = PopulationState(space3, {(0, 1, 0): 40})
    for seed in (1, 2, 3):
        assert ancestry_reconstruct(model3, z0, 2.0, seed=seed) == (0, 1, 0)
    types = reconstruct_replicates(model3, z0, 2.0, seed=4, n_replicates=64)
    assert types.shape == (64,)
    assert (types == space3.encode((0, 1, 0))).all()
    assert np.array_equal(
        types, reconstruct_replicates(model3, z0, 2.0, seed=4, n_replicates=64)
    )
    with pytest.raises(DomainError):
        reconstruct_replicates(model3, z0, -1.0, seed=1, n_replicates=4)
    with pytest.raises(DomainError):
        reconstruct_replicates(model3, z0, 1.0, seed=1, n_replicates=0)


def test_reconstruction_distribution_matches_deterministic_flow(model2, w0_2, space2):
    """Reconstructed types from a large founder population follow the
    deterministic solution up to O(1/N) finite-size bias and Monte Carlo
    noise."""
    N, reps, t = 2000, 20000, 0.7
    z0 = PopulationState.from_distribution(w0_2, N)
    flat = reconstruct_replicates(model2, z0, t, seed=33, n_replicates=reps)
    emp = np.bincount(flat, minlength=space2.cardinality) / reps
    target = solve_exact(model2, w0_2, t).to_array()
    for j in range(space2.cardinality):
        se = np.sqrt(max(target[j] * (1 - target[j]), 1e-300) / reps)
        assert abs(emp[j] - target[j]) <= 4.5 * se + 2.0 / N, (
            f"type {space2.decode(j)}: {emp[j]} vs {target[j]}"
        )
