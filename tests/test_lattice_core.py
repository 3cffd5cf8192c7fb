"""The bitmask lattice core against Partition-object and dense references.

The reference builders below are the generator, discrete-matrix and
mixture-weight constructions as first written on ``Partition`` objects
(``block_split_rates``, ``marginal_rate``, ``refinements``, ``restrict``,
``refines``).  The package now builds all three on mask states from one
split table; the generator and the discrete matrix must match the
references bitwise, the weights to rounding.  ``reference_expm_action`` is
the uniformization as first written on a dense generator; the sparse one
must match it to rounding.  ``reference_reachable_exit_rates`` walks
``children`` depth-first from the one-block state; the reachable states and
exit rates ``PsiTheta`` keeps must equal it bitwise.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from recomb import (
    Partition,
    PartitionIndex,
    PartitionMatrix,
    RecombinationDistribution,
    ancestral,
    build_discrete_matrix,
    build_generator,
    cli,
    coefficients_discrete,
    coefficients_semigroup,
    compute_psi_theta,
    dynamics,
    partitions,
    refinements,
    shared_index,
    transition_semigroup,
    two_block_partitions,
)
from recomb.ancestral import _poisson_weights


def reference_generator(d, index):
    size = len(index)
    q = np.zeros((size, size))
    for i, a in enumerate(index):
        total = 0.0
        for b in a.blocks:
            if len(b) < 2:
                continue
            others = [blk for blk in a.blocks if blk != b]
            for c, rate in d.block_split_rates(b).items():
                target = Partition(list(others) + list(c.blocks))
                q[i, index.index_of(target)] += rate
                total += rate
        q[i, i] = -total
    return q


def reference_discrete_matrix(d, index):
    size = len(index)
    m = np.zeros((size, size))
    for i, a in enumerate(index):
        options_per_block = []
        for b in a.blocks:
            opts = []
            stay = d.marginal_rate(b, Partition.one_block(b)) / d.mu
            if stay > 0:
                opts.append((Partition.one_block(b), stay))
            for c, rate in d.block_split_rates(b).items():
                opts.append((c, rate / d.mu))
            options_per_block.append(opts)
        for combo in itertools.product(*options_per_block):
            blocks = []
            prob = 1.0
            for c, p in combo:
                blocks.extend(c.blocks)
                prob *= p
            m[i, index.index_of(Partition(blocks))] += prob
    return m


def reference_theta(d):
    """Ground-set mixture weights by the Partition-object recursion."""
    tables = {}

    def psi(a):
        return sum(d.split_rate(b) for b in a.blocks)

    def reachable(u):
        one = Partition.one_block(u)
        seen, frontier = {one}, [one]
        while frontier:
            nxt = []
            for p in frontier:
                for w in p.blocks:
                    rest = [b for b in p.blocks if b != w]
                    for c in d.block_split_rates(w) if len(w) > 1 else ():
                        child = Partition(rest + list(c.blocks))
                        if child not in seen:
                            seen.add(child)
                            nxt.append(child)
            frontier = nxt
        return sorted(seen, key=Partition.sort_key)

    def table_of(u):
        u = tuple(sorted(u))
        if u in tables:
            return tables[u]
        one = Partition.one_block(u)
        table = {}
        splits = d.block_split_rates(u) if len(u) > 1 else {}
        sub = {c: (table_of(c.blocks[0]), table_of(c.blocks[1])) for c in splits}
        for b in reachable(u):
            if b == one:
                continue
            denom = psi(one) - psi(b)
            for a in refinements(b):
                acc = 0.0
                for c, rate in splits.items():
                    if not b.refines(c):
                        continue
                    t1, t2 = sub[c]
                    c1, c2 = c.blocks
                    f1 = t1.get((a.restrict(c1), b.restrict(c1)), 0.0)
                    f2 = t2.get((a.restrict(c2), b.restrict(c2)), 0.0)
                    acc += rate * f1 * f2
                if acc != 0.0:
                    table[(a, b)] = acc / denom
        totals = {}
        for (a, _), v in table.items():
            totals[a] = totals.get(a, 0.0) + v
        table[(one, one)] = 1.0
        for a, total in totals.items():
            if total != 0.0:
                table[(a, one)] = -total
        tables[u] = table
        return table

    return table_of(d.ground)


def reference_reachable_exit_rates(d):
    """Exit rates of the mask states reachable from the one-block state,
    by a depth-first walk over ``children``, each the blocks' split-table
    rates summed."""
    one = ((1 << d.n_sites) - 1,)
    seen, stack = {one}, [one]
    while stack:
        for child, _ in d.children(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return {
        state: sum(sum(rate for _, _, rate in d.split_table(b)[1]) for b in state)
        for state in seen
    }


def reachable_closure(q, v):
    """States reachable from the support of v along Q's nonzero entries."""
    edges = q != 0.0
    seen = frontier = v != 0.0
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return np.flatnonzero(seen)


def reference_expm_action(q, v, t):
    """v @ e^{tQ} by uniformization with P = I + Q/lambda, built dense.

    Every term v P^k is zero off the states reachable from v's support, so
    P is restricted to them (lambda still comes from all of Q); a
    single-crossover model reaches only its interval partitions.  The
    products v P^k run on a CSR copy of the dense P, which holds the same
    entries: a general 8-site model reaches all 4140 states, and at
    t = 700 a dense product per Poisson term would dominate the suite.
    """
    lam = float(-q.diagonal().min())
    if not lam * t > 0.0:
        return v.copy()
    live = reachable_closure(q, v)
    p = scipy.sparse.csr_matrix(np.eye(live.shape[0]) + q[np.ix_(live, live)] / lam)
    n_chunks = max(1, int(math.ceil(lam * t / 500.0)))
    dt = t / n_chunks
    out = v[live].astype(float)
    for _ in range(n_chunks):
        weights = _poisson_weights(lam * dt)
        term = out
        acc = weights[0] * term
        for weight in weights[1:]:
            term = term @ p
            acc = acc + weight * term
        out = acc
    full = np.zeros(v.shape[0])
    full[live] = out
    return full


def general_model(n, seed):
    """Probability-style model with a random weight on every two-block split."""
    rng = np.random.default_rng(seed)
    splits = two_block_partitions(range(1, n + 1))
    w = rng.uniform(0.1, 1.0, len(splits))
    probs = 0.9 * w / w.sum()
    return RecombinationDistribution.from_probabilities(
        range(1, n + 1), 1.3, dict(zip(splits, probs.tolist()))
    )


def crossover_model(n, seed):
    rng = np.random.default_rng(seed)
    return RecombinationDistribution.single_crossover(rng.uniform(0.1, 1.0, n - 1))


@pytest.fixture(
    scope="module",
    params=["model3", "general5", "general6", "crossover8"],
)
def lattice_model(request, model3):
    if request.param == "model3":
        return model3
    if request.param == "crossover8":
        return crossover_model(8, 8)
    n = int(request.param[-1])
    return general_model(n, n)


def test_generator_is_bitwise_the_reference(lattice_model):
    index = PartitionIndex(lattice_model.ground)
    got = build_generator(lattice_model, index).values
    want = reference_generator(lattice_model, index)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_discrete_matrix_is_bitwise_the_reference(lattice_model):
    d = lattice_model
    if d.style != "probability":
        d = RecombinationDistribution.from_probabilities(d.ground, d.mu, d.entries)
    index = PartitionIndex(d.ground)
    got = build_discrete_matrix(d, index).values
    want = reference_discrete_matrix(d, index)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "d",
    [general_model(3, 3), general_model(5, 5), general_model(6, 6), crossover_model(6, 6)],
    ids=["general3", "general5", "general6", "crossover6"],
)
def test_theta_tables_match_the_reference(d):
    got = compute_psi_theta(d).ground_table()
    want = reference_theta(d)
    assert set(got) == set(want)
    scale = max(1.0, max(abs(v) for v in want.values()))
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * scale


@pytest.mark.parametrize(
    "d",
    [
        general_model(3, 3),
        general_model(5, 5),
        general_model(6, 6),
        crossover_model(6, 6),
        crossover_model(8, 8),
    ],
    ids=["general3", "general5", "general6", "crossover6", "crossover8"],
)
def test_reachable_exit_rates_are_bitwise_the_reference(d):
    got = compute_psi_theta(d)._exit_rates
    want = reference_reachable_exit_rates(d)
    assert set(got) == set(want)
    assert all(got[s].hex() == float(want[s]).hex() for s in want)
    if d.is_single_crossover():
        assert len(got) == 2 ** (d.n_sites - 1)


def test_split_table_is_bitwise_the_restricted_support():
    # the rates block_split_rates and marginal_rate summed by restricting
    # every supported event to u; the generator and discrete references
    # above read them through the table
    d = general_model(5, 11)
    for u in range(1, 1 << d.n_sites):
        sites = [s for i, s in enumerate(d.ground) if u >> i & 1]
        splits: dict[Partition, float] = {}
        stay = 0.0
        stay += d.mu * d.residual_probability
        for a, r in d.entries.items():
            c = a.restrict(sites)
            if c.n_blocks == 2:
                splits[c] = splits.get(c, 0.0) + d.mu * r
            else:
                stay += d.mu * r
        got_stay, got_splits = d.split_table(u)
        assert got_stay == stay
        assert [
            (Partition.from_masks((p1, p2), d.ground), rate) for p1, p2, rate in got_splits
        ] == list(splits.items())


def test_children_are_the_generator_row(model3):
    index = PartitionIndex(model3.ground)
    state = index.states[0]
    # blocks ordered by lowest site: 1,3|2 is (0b101, 0b010)
    assert list(model3.children(state)) == [
        ((0b001, 0b110), 0.3), ((0b011, 0b100), 0.5), ((0b101, 0b010), 0.2)
    ]
    assert list(model3.children(index.states[-1])) == []


def test_crosscheck_builds_each_route_once(monkeypatch, tmp_path):
    calls = {"build_generator": 0, "compute_psi_theta": 0}

    def counting(name):
        inner = getattr(ancestral, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    for name in calls:
        wrapped = counting(name)
        monkeypatch.setattr(dynamics, name, wrapped)
        monkeypatch.setattr(ancestral, name, wrapped)
    d = RecombinationDistribution.single_crossover([0.3, 0.9, 0.5])
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "recombination": d.to_config(),
        "run": {"t_grid": [0.1, 1.0, 10.0]},
    }))
    assert cli.main(["crosscheck", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == {"build_generator": 1, "compute_psi_theta": 1}
    report = json.loads((tmp_path / "crosscheck.json").read_text())
    assert report["routes"] == ["semigroup", "recursion", "single_crossover"]
    assert report["max_deviation"] <= 1e-10


@pytest.fixture(
    scope="module",
    params=["model3", "general5", "general6", "general8", "crossover8"],
)
def semigroup_model(request, model3):
    if request.param == "model3":
        return model3
    if request.param == "crossover8":
        return crossover_model(8, 8)
    n = int(request.param[-1])
    return general_model(n, n)


def test_semigroup_matches_the_dense_reference(semigroup_model):
    d = semigroup_model
    q = build_generator(d, shared_index(d.ground))
    dense = q.values
    start = np.zeros(len(q.index))
    start[0] = 1.0
    for t in (0.1, 1.0, 10.0, 700.0):
        got = coefficients_semigroup(q, t).values
        want = reference_expm_action(dense, start, t)
        assert np.max(np.abs(got - want)) <= 1e-14, t


def test_generator_and_semigroup_stay_sparse_at_the_cap():
    d = general_model(8, 8)
    index = shared_index(d.ground)
    assert len(index) == 4140
    tracemalloc.start()
    try:
        q = build_generator(d, index)
        coefficients_semigroup(q, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 4140 x 4140 float64 array alone is 131 MiB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_entry_and_row_read_the_dense_view(model3):
    d = general_model(5, 5)
    index = shared_index(d.ground)
    matrices = [build_generator(model3, shared_index(model3.ground)),
                build_generator(d, index), build_discrete_matrix(d, index)]
    for m in matrices:
        dense = m.values
        assert not dense.flags.writeable
        for i, a in enumerate(m.index):
            assert np.array_equal(m.row(a), dense[i])
            for j, b in enumerate(m.index):
                assert m.entry(a, b) == dense[i, j]
        # the dense constructor keeps every entry, the -0.0 diagonals too
        assert PartitionMatrix(m.index, dense).values.tobytes() == dense.tobytes()


def test_generator_stores_every_diagonal_and_no_zero(model3):
    q = build_generator(model3, shared_index(model3.ground))
    diagonal = q.rows == q.cols
    assert q.rows[diagonal].tolist() == list(range(len(q.index)))
    assert np.all(np.diff(q.rows) >= 0)
    assert np.all(q.data[~diagonal] > 0.0)
    assert str(q.data[-1]) == "-0.0"  # the finest partition never splits


def test_transition_semigroup_rows_are_the_started_coefficients(monkeypatch):
    d = general_model(5, 5)
    q = build_generator(d, shared_index(d.ground))
    whole = transition_semigroup(q, 2.0).values
    monkeypatch.setattr(ancestral, "_BLOCK_ENTRIES", 3 * len(q.data))
    blocked = transition_semigroup(q, 2.0).values
    assert blocked.tobytes() == whole.tobytes()
    for i, a in enumerate(q.index):
        assert np.array_equal(whole[i], coefficients_semigroup(q, 2.0, start=a).values)


def test_discrete_coefficients_match_dense_powers():
    d = general_model(5, 5)
    m = build_discrete_matrix(d, shared_index(d.ground))
    v = np.zeros(len(m.index))
    v[0] = 1.0
    dense = m.values
    for t in range(6):
        got = coefficients_discrete(m, t).values
        assert np.max(np.abs(got - v)) <= 1e-15
        v = v @ dense


def test_exact_routes_share_one_index_per_ground_set(monkeypatch, tmp_path):
    d = RecombinationDistribution.single_crossover([0.3, 0.9, 0.5])
    index = shared_index(d.ground)
    assert shared_index(reversed(d.ground)) is index
    assert compute_psi_theta(d).index is index
    for method in dynamics.EXACT_METHODS:
        for coeffs in dynamics.exact_coefficients(d, [0.5, 2.0], method):
            assert coeffs.index is index
    builds = []
    init = PartitionIndex.__init__

    def counting(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PartitionIndex, "__init__", counting)
    partitions._shared_index.cache_clear()
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "recombination": d.to_config(),
        "run": {"t_grid": [0.1, 1.0, 10.0]},
    }))
    assert cli.main(["crosscheck", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert builds == [d.ground]
