"""Finite-population models: the forward resampling process, its
single-event law, the law-of-large-numbers report, and the backward
ancestry process with founder reconstruction."""

import math
import warnings

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
    partitioning_history,
    reconstruct_replicates,
    simulate_arg,
    simulate_moran,
    simulate_moran_grid,
    solve_exact,
    stream_uniforms,
)
from recomb import _kernels

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


def _old_round(w, N):
    """Largest-remainder rounding in float64 as first written: near and past
    2**53 it can miss or overshoot N, or give a type of weight 0 someone."""
    scaled = w.to_array() / w.to_array().sum() * N
    base = np.floor(scaled).astype(np.int64)
    short = N - int(base.sum())
    if short > 0:
        base[np.argsort(-(scaled - base), kind="stable")[:short]] += 1
    return base


@pytest.mark.parametrize("N", [2 ** 60 + 1, 2 ** 62 + 3, 10 ** 18 + 7, 2 ** 63 - 1])
def test_from_distribution_round_mode_is_exact_past_float_precision(N):
    space = TypeSpace([2, 2])
    w = TypeDistribution.from_pairs(
        space, [((0, 0), 0.1), ((0, 1), 0.2), ((1, 0), 0.3), ((1, 1), 0.4)]
    )
    z = PopulationState.from_distribution(w, N)
    assert z.N == N and sum(z.counts.tolist()) == N
    assert np.all(z.counts > 0)
    shares = [c / N for c in z.counts.tolist()]
    assert max(abs(a - b) for a, b in zip(shares, (0.1, 0.2, 0.3, 0.4))) <= 1e-15


@pytest.mark.parametrize("N", [2 ** 60 + 1, 2 ** 63 - 1])
def test_from_distribution_round_mode_dirac_past_float_precision(N):
    # every individual goes to the one type of positive weight, also those
    # float rounding loses (1 at 2**60 + 1, 1023 at the int64 bound)
    space = TypeSpace([2, 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = PopulationState.from_distribution(TypeDistribution.dirac(space, (1, 0)), N)
    assert z.count((1, 0)) == N and z.N == N


def test_from_distribution_round_mode_keeps_every_exact_rounding():
    # wherever float rounding already gave N individuals, none of them to a
    # type of weight 0, the counts stay; types of weight 0 get nobody
    rng = np.random.default_rng(11)
    space = TypeSpace([3, 2, 2])
    for trial in range(200):
        raw = rng.random(space.cardinality) * (rng.random(space.cardinality) < 0.6)
        raw[trial % space.cardinality] += 0.5
        w = TypeDistribution._from_dense(space, raw / raw.sum())
        N = int(rng.choice([1, 7, 1000, 10 ** 6 + 3, 2 ** 40 + 5, 2 ** 53 - 1]))
        old = _old_round(w, N)
        counts = PopulationState.from_distribution(w, N).counts
        assert not np.any(counts[raw == 0])
        if sum(old.tolist()) == N and not np.any(old[raw == 0]):
            assert counts.tolist() == old.tolist()


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


def test_multinomial_start_is_the_moran_batch_start(model3, space3):
    # from_distribution draws the start replicate 0 of a Moran batch
    # redraws, so a population built from it matches the batch's counts
    rng = np.random.default_rng(38)
    types = list(space3.types())
    for k in range(30):
        w = rng.uniform(0.0, 1.0, len(types))
        w[k % len(types)] = 0.0  # a zero-weight type
        dist = TypeDistribution.from_pairs(space3, zip(types, w.tolist()))
        N, seed = int(rng.integers(1, 500)), int(rng.integers(0, 2**63))
        z = PopulationState.from_distribution(dist, N, mode="multinomial", seed=seed)
        z0 = PopulationState(space3, {types[0]: N})
        batch = simulate_moran_grid(model3, z0, [0.0], seed, multinomial_from=dist)
        assert z.counts.tolist() == batch[0, 0].tolist(), (k, N, seed)
        assert z.counts[k % len(types)] == 0


def test_multinomial_start_never_draws_a_last_type_of_zero_weight():
    # a mass short of 1 leaves uniforms past every running weight; they go
    # to the last type of positive weight, as if the zero tail were absent
    counts = _kernels.multinomial_start([0.5, 0.4, 0.0], 10_000, seed=1)
    assert counts.tolist() == [5073, 4927, 0]
    two = _kernels.multinomial_start([0.5, 0.4], 10_000, seed=1)
    assert counts[:2].tolist() == two.tolist()
    # a last type of positive weight keeps the draws it had
    assert _kernels.multinomial_start([0.5, 0.0, 0.4], 10_000, seed=1).tolist() == [
        5073, 0, 4927
    ]


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


# front door -> (the least valid count, a call passing the count v)
COUNT_CALLS = {
    "from_distribution-N": (
        1, lambda d, w, z, v: PopulationState.from_distribution(w, v)
    ),
    "PopulationState-count": (
        0, lambda d, w, z, v: PopulationState(z.space, {(0, 0, 0): v, (1, 1, 1): 1})
    ),
    "simulate_moran_grid-replicates": (
        1, lambda d, w, z, v: simulate_moran_grid(d, z, [0.5], 1, replicates=v)
    ),
    "simulate_moran_grid-first_replicate": (
        0, lambda d, w, z, v: simulate_moran_grid(d, z, [0.5], 1, first_replicate=v)
    ),
    "moran_event_counts-n_events": (1, lambda d, w, z, v: moran_event_counts(d, z, v, 1)),
    "lln_report-population_sizes": (
        1, lambda d, w, z, v: lln_report(d, w, 0.5, [10, v], 2, seed=1)
    ),
    "lln_report-replicates": (1, lambda d, w, z, v: lln_report(d, w, 0.5, [10], v, seed=1)),
    "simulate_arg-N": (1, lambda d, w, z, v: simulate_arg(d, v, 1.0, seed=1)),
    "simulate_arg-replicate": (
        0, lambda d, w, z, v: simulate_arg(d, 20, 1.0, seed=1, replicate=v)
    ),
    "arg_replicates-N": (1, lambda d, w, z, v: arg_replicates(d, v, 1.0, 1, 2)),
    "arg_replicates-n_replicates": (1, lambda d, w, z, v: arg_replicates(d, 20, 1.0, 1, v)),
    "arg_replicates-first_replicate": (
        0, lambda d, w, z, v: arg_replicates(d, 20, 1.0, 1, 2, first_replicate=v)
    ),
    "arg_partition_frequencies-n_replicates": (
        1, lambda d, w, z, v: arg_partition_frequencies(d, 20, 1.0, 1, v)
    ),
    "reconstruct_replicates-n_replicates": (
        1, lambda d, w, z, v: reconstruct_replicates(d, z, 1.0, 1, v)
    ),
    "stream_uniforms-replicate": (0, lambda d, w, z, v: stream_uniforms(1, v, 4)),
    "stream_uniforms-count": (0, lambda d, w, z, v: stream_uniforms(1, 0, v)),
}


@pytest.fixture()
def no_sampler_kernels(monkeypatch):
    """Make every sampler kernel fail if it is reached."""

    def reached(*args, **kwargs):
        raise AssertionError("a kernel ran before the arguments were checked")

    for name in ("moran_batch", "moran_tv_batch", "moran_event_pairs", "arg_batch",
                 "arg_state", "reconstruct_batch"):
        monkeypatch.setattr(_kernels, name, reached)


@pytest.mark.parametrize("bad", ["fraction", "bool", "nan", "below"])
@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_samplers_refuse_counts_that_are_not_whole(
    model3, w0_3, no_sampler_kernels, name, bad
):
    # refused before any kernel runs, never truncated to a smaller count
    minimum, call = COUNT_CALLS[name]
    value = {"fraction": 2.5, "bool": True, "nan": math.nan, "below": minimum - 1}[bad]
    z0 = PopulationState(TypeSpace([2, 2, 2]), {(0, 0, 0): 12, (1, 1, 1): 8})
    with pytest.raises(DomainError, match="whole number|>= "):
        call(model3, w0_3, z0, value)


def _refused(call, match):
    """The DomainError `call` raises, raised by the package itself rather
    than re-raised from a numpy error."""
    with pytest.raises(DomainError, match=match) as info:
        call()
    assert info.value.__context__ is None and info.value.__cause__ is None
    return info.value


@pytest.mark.parametrize(
    "counts",
    [[2.5, 1.7, 0, 0], [2.0, math.nan, 0, 0], [1.0, math.inf, 0, 0], [True, False, True, False]],
)
def test_population_array_refuses_counts_that_are_not_whole(counts):
    # np.int64 would truncate [2.5, 1.7, 0, 0] to a population of 3
    _refused(lambda: PopulationState(TypeSpace([2, 2]), counts), "whole number")


def test_population_array_accepts_whole_floats_and_refuses_negatives():
    space = TypeSpace([2, 2])
    z = PopulationState(space, [2.0, 1.0, 0.0, 0.0])
    assert z.counts.dtype == np.int64 and z.N == 3
    assert z == PopulationState(space, np.array([2, 1, 0, 0], np.uint8))
    for counts in ([2.0, -1.0, 0, 0], [2, -1, 0, 0]):
        _refused(lambda: PopulationState(space, counts), "nonnegative")


@pytest.mark.parametrize(
    "counts",
    [
        [2 ** 62, 2 ** 62, 0, 0],  # each count fits int64, their sum does not
        np.array([1e30, 0, 0, 0]),
        np.array([2 ** 63, 0, 0, 0], np.uint64),
        {(0, 0): 2 ** 63},
        {(0, 0): 2 ** 62, (1, 1): 2 ** 62},
    ],
    ids=["array-sum", "array-float", "array-uint64", "mapping-count", "mapping-sum"],
)
def test_population_refuses_counts_past_int64(counts):
    # refused before any cast to int64, so no numpy overflow or cast
    # warning is raised or chained
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _refused(lambda: PopulationState(TypeSpace([2, 2]), counts), "<= ")
    assert str(2 ** 63 - 1) in str(err)


def test_population_accepts_counts_up_to_int64():
    z = PopulationState(TypeSpace([2, 2]), [2 ** 62, 2 ** 62 - 1, 0, 0])
    assert z.N == 2 ** 63 - 1 and z.counts.dtype == np.int64
    z = PopulationState(TypeSpace([2, 2]), {(0, 0): 2 ** 62, (1, 1): 2 ** 62 - 1})
    assert z.N == 2 ** 63 - 1 and z.count((1, 1)) == 2 ** 62 - 1


LAST = 2 ** 64 - 1

# front door -> a call whose replicate indices run one past 2**64 - 1
PAST_LAST_REPLICATE = {
    "stream_uniforms": lambda d, z: stream_uniforms(1, 2 ** 64, 3),
    "simulate_arg": lambda d, z: simulate_arg(d, 20, 1.0, seed=1, replicate=2 ** 64),
    "arg_replicates-first": lambda d, z: arg_replicates(d, 20, 1.0, 1, 1, first_replicate=2 ** 64),
    "arg_replicates-span": lambda d, z: arg_replicates(d, 20, 1.0, 1, 2, first_replicate=LAST),
    "simulate_moran_grid-first": lambda d, z: simulate_moran_grid(
        d, z, [0.5], 1, first_replicate=2 ** 64
    ),
    "simulate_moran_grid-span": lambda d, z: simulate_moran_grid(
        d, z, [0.5], 1, replicates=3, first_replicate=LAST - 1
    ),
    "partitioning_history": lambda d, z: partitioning_history(
        d, Partition.one_block(d.ground), 1.0, 0, 2 ** 64
    ),
    "partition_frequencies": lambda d, z: partition_frequencies(d, 1.0, 2 ** 64 + 1, seed=0),
    "reconstruct_replicates": lambda d, z: reconstruct_replicates(d, z, 1.0, 1, 2 ** 64 + 1),
    "lln_report": lambda d, z: lln_report(d, z.frequencies(), 0.5, [10], 2 ** 64 + 1, seed=1),
}


@pytest.mark.parametrize("name", sorted(PAST_LAST_REPLICATE))
def test_replicate_indices_past_the_last_stream_are_refused(
    model3, no_sampler_kernels, monkeypatch, name
):
    def reached(*args, **kwargs):
        raise AssertionError("a kernel ran before the arguments were checked")

    for kernel in ("partition_batch", "partition_history"):
        monkeypatch.setattr(_kernels, kernel, reached)
    z0 = PopulationState(TypeSpace([2, 2, 2]), {(0, 0, 0): 12, (1, 1, 1): 8})
    _refused(lambda: PAST_LAST_REPLICATE[name](model3, z0), "<= ")


def test_the_last_replicate_index_runs(model3):
    z0 = PopulationState(TypeSpace([2, 2, 2]), {(0, 0, 0): 12, (1, 1, 1): 8})
    assert stream_uniforms(1, LAST, 3).shape == (3,)
    rows, _ = arg_replicates(model3, 20, 1.0, 1, 2, first_replicate=LAST - 1)
    assert np.array_equal(rows[1], arg_replicates(model3, 20, 1.0, 1, 1, first_replicate=LAST)[0][0])
    grid = simulate_moran_grid(model3, z0, [0.5], 1, replicates=2, first_replicate=LAST - 1)
    assert np.array_equal(
        grid[1], simulate_moran_grid(model3, z0, [0.5], 1, first_replicate=LAST)[0]
    )
    assert simulate_arg(model3, 20, 1.0, seed=1, replicate=LAST).n_ancestors >= 1
    history = partitioning_history(model3, Partition.one_block(model3.ground), 5.0, 0, LAST)
    assert all(a.refines(Partition.one_block(model3.ground)) for _, a in history)


def test_samplers_accept_whole_floats_and_numpy_integers(model3, w0_3):
    rep = lln_report(model3, w0_3, 0.5, [np.int64(10), 40.0], 3.0, seed=2)
    assert rep.population_sizes == [10, 40]
    assert all(type(n) is int for n in rep.population_sizes)
    assert rep.to_dict() == lln_report(model3, w0_3, 0.5, [10, 40], 3, seed=2).to_dict()
    z0 = PopulationState.from_distribution(w0_3, 20.0)
    assert z0 == PopulationState.from_distribution(w0_3, np.int32(20))
    assert np.array_equal(
        simulate_moran_grid(model3, z0, [0.5], 3, replicates=np.int64(2), first_replicate=1.0),
        simulate_moran_grid(model3, z0, [0.5], 3, replicates=2, first_replicate=1),
    )
    assert np.array_equal(
        arg_replicates(model3, 20.0, 1.0, 3, np.int64(4))[0],
        arg_replicates(model3, 20, 1.0, 3, 4)[0],
    )


@pytest.mark.parametrize("split", [1, 3, 5])
def test_batches_split_by_first_replicate_concatenate_to_the_whole(
    model3, w0_3, split
):
    z0 = PopulationState.from_distribution(w0_3, 30)
    grid = [0.25, 1.0]
    for kwargs in ({}, {"multinomial_from": w0_3}):
        whole = simulate_moran_grid(model3, z0, grid, 5, replicates=6, **kwargs)
        head = simulate_moran_grid(model3, z0, grid, 5, replicates=split, **kwargs)
        tail = simulate_moran_grid(
            model3, z0, grid, 5, replicates=6 - split, first_replicate=split, **kwargs
        )
        assert np.concatenate([head, tail]).tobytes() == whole.tobytes()
    rows, ancestors = arg_replicates(model3, 40, 1.5, 5, 6)
    head = arg_replicates(model3, 40, 1.5, 5, split)
    tail = arg_replicates(model3, 40, 1.5, 5, 6 - split, first_replicate=split)
    assert np.concatenate([head[0], tail[0]]).tobytes() == rows.tobytes()
    assert np.concatenate([head[1], tail[1]]).tobytes() == ancestors.tobytes()


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
