"""The exact routes on the states a model reaches from the one-block partition.

The index of ``build_generator(d)`` must be the closure of the
refinement step, checked against an independent breadth-first walk over
``Partition`` objects below.  On it, general models keep the lattice's
floats bit for bit, single-crossover models stay within rounding of the
lattice, and past the 8-site lattice the semigroup must agree with the
closed form and with the closed forms of its 8-site marginal models.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from recomb import (
    CoefficientVector,
    DomainError,
    Partition,
    PartitionIndex,
    RecombinationDistribution,
    SizeCapError,
    build_discrete_matrix,
    build_generator,
    coefficients_semigroup,
    coefficients_single_crossover,
    exact_coefficients,
    partitions,
    shared_index,
    two_block_partitions,
)
from recomb.ancestral import on_output_index

TIMES = (0.1, 1.0, 10.0)


def reference_closure(d):
    """Partitions reachable from the one-block partition: split any block
    by any supported event whose two sides both meet it."""
    start = Partition.one_block(d.ground)
    sides = [set(a.blocks[0]) for a in d.entries]
    seen = {start}
    frontier = [start]
    while frontier:
        later = []
        for p in frontier:
            for i, block in enumerate(p.blocks):
                for side in sides:
                    inside = [s for s in block if s in side]
                    outside = [s for s in block if s not in side]
                    if inside and outside:
                        child = Partition(p.blocks[:i] + p.blocks[i + 1:] + (inside, outside))
                        if child not in seen:
                            seen.add(child)
                            later.append(child)
        frontier = later
    return seen


def general_model(n, seed):
    rng = np.random.default_rng(seed)
    splits = two_block_partitions(range(1, n + 1))
    w = rng.uniform(0.1, 1.0, len(splits))
    return RecombinationDistribution.from_rates(
        range(1, n + 1), dict(zip(splits, (3.0 * w / w.sum()).tolist()))
    )


def crossover_model(n, seed):
    rng = np.random.default_rng(seed)
    return RecombinationDistribution.single_crossover(rng.uniform(0.1, 1.0, n - 1))


def sparse_model():
    P = Partition.from_text
    return RecombinationDistribution.from_rates(
        range(1, 7),
        {P("1,3,5|2,4,6"): 0.7, P("1,2,3|4,5,6"): 0.4, P("1|2,3,4,5,6"): 0.2},
        residual_rate=0.5,
    )


def general5_less_one():
    d = general_model(5, 5)
    dropped = Partition.from_text("1,3|2,4,5")
    return RecombinationDistribution.from_rates(
        d.ground, {a: d.mu * r for a, r in d.entries.items() if a != dropped}
    )


#: the model's slots: its rates, all set at construction
MODEL_SLOTS = ("ground", "mu", "entries", "style", "_masks")


def model_slots(d):
    """Each slot of the model and a copy of its stored entries."""
    return {name: getattr(d, name) for name in type(d).__slots__}, dict(d.entries)


def holds_no_walk(d, before=None):
    """The model holds its rates only: its slots are ``MODEL_SLOTS``, none
    holds a memo or an index, and each holds what it held `before` (a
    ``model_slots`` taken before a route or builder ran)."""
    held, entries = model_slots(d)
    if type(d) is not RecombinationDistribution or tuple(held) != MODEL_SLOTS:
        return False
    if any(isinstance(v, PartitionIndex) for v in held.values()):
        return False
    if before is None:
        return True
    slots, stored = before
    return all(held[name] is slots[name] for name in MODEL_SLOTS) and entries == stored


CLOSURE_CASES = (
    [(f"general{n}", lambda n=n: general_model(n, n)) for n in range(3, 7)]
    + [(f"crossover{n}", lambda n=n: crossover_model(n, n)) for n in range(4, 13)]
    + [("sparse6", sparse_model), ("general5-less-one", general5_less_one)]
)


@pytest.mark.parametrize("make", [m for _, m in CLOSURE_CASES], ids=[k for k, _ in CLOSURE_CASES])
def test_reachable_states_are_the_reference_closure(make):
    d = make()
    index = build_generator(d).index
    want = reference_closure(d)
    assert len(index) == len(want)
    assert list(index.partitions) == sorted(want, key=Partition.sort_key)
    assert index.states == tuple(tuple(p.as_masks()) for p in index.partitions)
    if d.is_single_crossover():
        assert len(index) == 2 ** (d.n_sites - 1)
        assert all(p.is_interval() for p in index.partitions)


def test_the_semigroup_route_steps_each_state_once_and_keeps_no_steps(monkeypatch):
    fresh = sparse_model()
    index = build_generator(fresh).index
    want = build_generator(fresh, index)

    calls = Counter()
    children = RecombinationDistribution.children

    def counted(self, state):
        calls[state] += 1
        return children(self, state)

    monkeypatch.setattr(RecombinationDistribution, "children", counted)
    d = sparse_model()
    before = model_slots(d)
    got = build_generator(d)
    assert sorted(calls) == sorted(index.states) and set(calls.values()) == {1}
    assert got.index.states == index.states
    for name in ("rows", "cols", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert holds_no_walk(d, before)

    calls.clear()
    exact_coefficients(sparse_model(), TIMES, "semigroup")
    assert len(calls) == len(index) and set(calls.values()) == {1}


@pytest.mark.parametrize("n", [5, 6])
def test_the_walked_generator_is_bitwise_the_lattice_generator(n):
    d = general_model(n, 30 + n)
    got = build_generator(d)
    want = build_generator(d, PartitionIndex(d.ground))
    assert got.index.states == want.index.states
    for name in ("rows", "cols", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("make", [sparse_model, lambda: general_model(5, 2)])
def test_the_semigroup_route_leaves_no_index_on_the_model(make):
    d = make()
    before = model_slots(d)
    exact_coefficients(d, TIMES, "semigroup")
    assert holds_no_walk(d, before)


def _discrete_model():
    d = general_model(4, 9)
    return RecombinationDistribution.from_probabilities(d.ground, 1.0, {
        a: 0.9 * r for a, r in d.entries.items()
    })


LEFT_ALONE = {
    "semigroup": (lambda: general_model(5, 2), lambda d: exact_coefficients(d, TIMES, "semigroup")),
    "recursion": (lambda: general_model(5, 2), lambda d: exact_coefficients(d, TIMES, "recursion")),
    "closed-form": (lambda: crossover_model(8, 3),
                    lambda d: exact_coefficients(d, TIMES, "single_crossover")),
    "lattice-generator": (lambda: general_model(5, 2),
                          lambda d: build_generator(d, PartitionIndex(d.ground))),
    "discrete-matrix": (_discrete_model,
                        lambda d: build_discrete_matrix(d, PartitionIndex(d.ground))),
}


@pytest.mark.parametrize("name", sorted(LEFT_ALONE))
def test_no_route_or_builder_leaves_a_memo_on_the_model(name):
    # each builder memoizes split tables for its own run only, so a model
    # that callers keep holds no more after a route than before it
    make, run = LEFT_ALONE[name]
    d = make()
    before = model_slots(d)
    run(d)
    assert holds_no_walk(d, before)


def test_a_model_reaching_every_partition_gets_the_lattice_order():
    d = general_model(5, 1)
    assert build_generator(d).index.states == PartitionIndex(d.ground).states


def test_index_from_states_sorts_and_holds_only_its_states():
    ground = tuple(range(1, 11))  # past the lattice cap: no cap here
    states = [(0b1111111111,), (0b0000000001, 0b1111111110), (0b0101010101, 0b1010101010)]
    index = PartitionIndex.from_states(ground, reversed(states))
    assert index.states == tuple(states)
    assert index.partitions[2] == Partition.from_text("1,3,5,7,9|2,4,6,8,10")
    assert index.index_of(Partition.from_text("1|2,3,4,5,6,7,8,9,10")) == 1
    with pytest.raises(DomainError):
        index.index_of(Partition.from_text("1,2|3,4,5,6,7,8,9,10"))


@pytest.mark.parametrize(
    "states",
    [
        pytest.param([(7,), (7,)], id="repeated-state"),
        pytest.param([(0b001, 0, 0b110)], id="zero-block"),
        pytest.param([(0b011, 0b110)], id="overlapping-blocks"),
        pytest.param([(0b011,)], id="site-in-no-block"),
        pytest.param([(0b010, 0b101)], id="not-by-lowest-bit"),
    ],
)
def test_index_from_states_refuses_what_is_not_a_set_of_mask_states(states):
    with pytest.raises(DomainError):
        PartitionIndex.from_states((1, 2, 3), states)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_general_coefficients_are_bitwise_the_lattice_semigroup(n):
    d = general_model(n, 10 + n)
    q = build_generator(d, PartitionIndex(d.ground))
    got = exact_coefficients(d, TIMES, "semigroup")
    for t, coeffs in zip(TIMES, got):
        assert coeffs.index is shared_index(d.ground)
        assert coeffs.values.tobytes() == coefficients_semigroup(q, t).values.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_crossover_coefficients_match_the_lattice(n):
    d = crossover_model(n, 20 + n)
    lattice = PartitionIndex(d.ground)
    q = build_generator(d, lattice)
    semigroup = exact_coefficients(d, TIMES, "semigroup")
    closed = exact_coefficients(d, TIMES, "single_crossover")
    for t, a, b in zip(TIMES, semigroup, closed):
        assert a.index is b.index is shared_index(d.ground)
        assert np.max(np.abs(a.values - coefficients_semigroup(q, t).values)) <= 1e-15
        # the closed form as first written, over the interval partitions
        want = np.zeros(len(lattice))
        survive = [np.exp(-t * d.cut_rate(k)) for k in range(1, n)]
        for p in lattice.interval_partitions():
            cuts = p.cut_set()
            want[lattice.index_of(p)] = np.prod(
                [1.0 - s if k in cuts else s for k, s in enumerate(survive, start=1)]
            )
        assert np.max(np.abs(b.values - want)) <= 1e-15


@pytest.fixture(scope="module")
def past_the_cap():
    """Single-crossover n = 12 and 16 on both routes, with the lattice
    enumeration switched off."""

    def refuse(ground):
        raise AssertionError(f"enumerated the lattice of {ground}")

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "all_partitions", refuse)
        for n in (12, 16):
            d = crossover_model(n, 7 * n)
            out[n] = (
                d,
                exact_coefficients(d, TIMES, "semigroup"),
                exact_coefficients(d, TIMES, "single_crossover"),
            )
    return out


@pytest.mark.parametrize("n", [12, 16])
def test_semigroup_matches_the_closed_form_past_the_lattice_cap(past_the_cap, n):
    d, semigroup, closed = past_the_cap[n]
    for a, b in zip(semigroup, closed):
        assert a.index is semigroup[0].index and b.index.states == a.index.states
        assert len(a.index) == 2 ** (n - 1)
        assert abs(a.total() - 1.0) <= 1e-12
        assert np.max(np.abs(a.values - b.values)) <= 1e-10
    # a partition the model never reaches has weight 0
    assert semigroup[0].value(Partition([[1], range(2, n + 1)])) > 0
    odd = Partition([range(1, n + 1, 2), range(2, n + 1, 2)])
    assert semigroup[0].value(odd) == 0.0


@pytest.mark.parametrize("lo", [1, 5])
def test_sixteen_site_semigroup_restricts_to_its_marginal_closed_forms(past_the_cap, lo):
    # The refinement process restricted to sites lo..lo+7 is the process
    # of the marginal model there: single crossover with the window's cuts.
    d, semigroup, _ = past_the_cap[16]
    marginal = RecombinationDistribution.single_crossover(
        [d.cut_rate(k) for k in range(lo, lo + 7)]
    )
    window = 0xFF << (lo - 1)
    for t, coeffs in zip(TIMES, semigroup):
        restricted: dict[tuple[int, ...], float] = {}
        for state, v in zip(coeffs.index.states, coeffs.values):
            parts = [(m & window) >> (lo - 1) for m in state if m & window]
            key = tuple(sorted(parts, key=lambda m: m & -m))
            restricted[key] = restricted.get(key, 0.0) + v
        want = coefficients_single_crossover(marginal, t)
        gap = max(
            abs(restricted.pop(state, 0.0) - v)
            for state, v in zip(want.index.states, want.values)
        )
        assert not restricted
        assert gap <= 1e-12, (lo, t, gap)


def test_past_the_reachable_cap_is_refused_with_the_count():
    # 17 sites of single crossover reach 2**16 interval partitions: the walk
    # stops at the first state past the cap, the closed form counts them
    d = RecombinationDistribution.single_crossover([0.5] * 16)
    for method, count in (("semigroup", 32769), ("single_crossover", 65536)):
        with pytest.raises(SizeCapError) as err:
            exact_coefficients(d, [1.0], method)
        message = str(err.value)
        assert f"at least {count} states" in message and "32768" in message
        assert "17 sites" in message
    # splitting one site off at a time reaches 2**16 - 16 states of 16 sites
    ground = range(1, 17)
    single = RecombinationDistribution.from_rates(
        ground, {Partition([[s], [r for r in ground if r != s]]): 1.0 for s in ground}
    )
    with pytest.raises(SizeCapError, match="16 sites reaches at least 32769 states"):
        build_generator(single)


def test_the_recursion_refuses_past_the_lattice_cap_before_any_table(monkeypatch):
    # Under single crossover the recursion's top table alone holds 3^(n-1)
    # refinement pairs, so it stays on the lattice of at most 8 sites.
    def refuse(self, u):
        raise AssertionError("built a split table")

    monkeypatch.setattr(RecombinationDistribution, "split_table", refuse)
    with pytest.raises(SizeCapError, match="16 sites"):
        exact_coefficients(crossover_model(16, 3), TIMES, "recursion")


def test_the_closed_form_lists_its_states_without_walking_the_model(monkeypatch):
    # the benchmark's checks and other callers may keep the model; the
    # closed form leaves no split tables on it, so no walk ran
    def refuse(*args):
        raise AssertionError("walked the model")

    monkeypatch.setattr(RecombinationDistribution, "split_table", refuse)
    d = crossover_model(10, 1)
    coeffs = coefficients_single_crossover(d, 1.0)
    assert len(coeffs.index) == 512 and abs(coeffs.total() - 1.0) <= 1e-12


def reference_closed_form(d, times):
    """The closed form as first written on the reachable states: list the
    interval states, then for each time one ``math.prod`` per state over
    every cut in ascending order."""
    n = d.n_sites
    cuts = [a.blocks[0][-1] for a in d.entries]
    states = []
    for chosen in itertools.product((False, True), repeat=len(cuts)):
        bounds = [0, *(k for k, on in zip(cuts, chosen) if on), n]
        states.append(tuple((1 << hi) - (1 << lo) for lo, hi in zip(bounds, bounds[1:])))
    index = PartitionIndex.from_states(d.ground, states)
    ends = [{m.bit_length() for m in state} for state in index.states]
    out = []
    for t in times:
        survive = [math.exp(-t * d.cut_rate(k)) for k in range(1, n)]
        values = np.zeros(len(index))
        for i, e in enumerate(ends):
            values[i] = math.prod(1.0 - s if k in e else s for k, s in enumerate(survive, start=1))
        out.append(CoefficientVector(index, values))
    return on_output_index(out)


LONG_TIMES = (0.0, 0.1, 1.0, 10.0, 1e3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: crossover_model(8, 56),
        lambda: crossover_model(12, 84),
        lambda: crossover_model(16, 112),
        lambda: RecombinationDistribution.single_crossover([0.3, 0.0, 0.7, 0.2, 0.0]),
    ],
    ids=["n8", "n12", "n16", "zero-rate-cut"],
)
def test_the_prepared_closed_form_is_bitwise_the_per_time_product(make):
    d = make()
    got = exact_coefficients(d, LONG_TIMES, "single_crossover")
    for t, a, want in zip(LONG_TIMES, got, reference_closed_form(d, LONG_TIMES)):
        assert a.index.states == want.index.states
        assert a.values.tobytes() == want.values.tobytes(), t
    assert coefficients_single_crossover(d, 1.0).values.tobytes() == got[2].values.tobytes()


def test_the_closed_form_lists_its_states_once_for_many_times(monkeypatch):
    calls = []
    from_states = PartitionIndex.from_states.__func__

    def counted(cls, ground, states):
        calls.append(ground)
        return from_states(cls, ground, states)

    monkeypatch.setattr(PartitionIndex, "from_states", classmethod(counted))
    got = exact_coefficients(crossover_model(10, 5), LONG_TIMES, "single_crossover")
    assert len(got) == 5 and len(calls) == 1
