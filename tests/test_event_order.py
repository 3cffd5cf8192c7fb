"""No result depends on the order in which a model's entries are given.

``RecombinationDistribution`` puts its entries into event order
(``Partition.sort_key``) once, at construction, and sums ``mu``, the sum
of r and the residual in it; every table, kernel input and exact route
reads the entries as stored.  Each model below is built from its entries
in event order and from permuted copies, and every result must agree bit
for bit.
"""

import json

import numpy as np
import pytest

from recomb import (
    Partition,
    PartitionIndex,
    RecombinationDistribution,
    build_generator,
    cli,
    exact_coefficients,
    partition_frequencies,
    two_block_partitions,
)
from recomb.moran import arg_replicates

TIMES = (0.1, 1.0, 10.0)


def general_entries(n, seed):
    """A value on every two-block split, summing to 0.9 (so usable as
    probabilities too), in event order."""
    rng = np.random.default_rng(seed)
    splits = two_block_partitions(range(1, n + 1))
    w = rng.uniform(0.1, 1.0, len(splits))
    return dict(zip(splits, (0.9 * w / w.sum()).tolist()))


def crossover_entries(n, seed):
    """One rate per cut of 1..n, in event order (cut after site 1 first)."""
    rng = np.random.default_rng(seed)
    cuts = [Partition([range(1, k + 1), range(k + 1, n + 1)]) for k in range(1, n)]
    return dict(zip(cuts, rng.uniform(0.2, 1.5, n - 1).tolist()))


def permutations(entries):
    """The entries reversed and in three random orders."""
    items = list(entries.items())
    out = [dict(reversed(items))]
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(items))
        out.append(dict(items[i] for i in order))
    return out


def build(style, n, entries):
    ground = range(1, n + 1)
    if style == "rate":
        return RecombinationDistribution.from_rates(ground, entries, residual_rate=0.37)
    return RecombinationDistribution.from_probabilities(ground, 1.3, entries)


CASES = [(style, n) for style in ("rate", "probability") for n in (3, 4, 5, 6)]


def case_models(style, n):
    entries = general_entries(n, seed=n)
    return build(style, n, entries), [build(style, n, e) for e in permutations(entries)]


def bits(values):
    return np.ascontiguousarray(values).tobytes()


def assert_same_model(ref, d):
    assert bits(np.float64(d.mu)) == bits(np.float64(ref.mu))
    assert list(d.entries) == list(ref.entries)
    assert bits(list(d.entries.values())) == bits(list(ref.entries.values()))
    assert bits(np.float64(d.residual_probability)) == bits(np.float64(ref.residual_probability))
    for got, want in zip(d.event_arrays(), ref.event_arrays()):
        assert got.dtype == want.dtype and bits(got) == bits(want)
    for u in range(1, 1 << d.n_sites):
        assert repr(d.split_table(u)) == repr(ref.split_table(u))


def assert_same_generator(ref, d):
    for index in (None, PartitionIndex(d.ground)):
        got, want = build_generator(d, index), build_generator(ref, index)
        assert got.index.states == want.index.states
        for name in ("rows", "cols", "data"):
            assert bits(getattr(got, name)) == bits(getattr(want, name))


def assert_same_routes(ref, d, methods):
    for method in methods:
        got = exact_coefficients(d, TIMES, method)
        want = exact_coefficients(ref, TIMES, method)
        assert [bits(v.values) for v in got] == [bits(v.values) for v in want]


def assert_same_samples(ref, d):
    assert partition_frequencies(d, 1.0, 400, 7) == partition_frequencies(ref, 1.0, 400, 7)
    got, want = arg_replicates(d, 1000, 1.0, 11, 200), arg_replicates(ref, 1000, 1.0, 11, 200)
    assert [bits(a) for a in got] == [bits(a) for a in want]


@pytest.mark.parametrize("style, n", CASES)
def test_general_models_do_not_depend_on_entry_order(style, n):
    ref, permuted = case_models(style, n)
    for d in permuted:
        assert_same_model(ref, d)
        assert_same_generator(ref, d)
        assert_same_routes(ref, d, ("semigroup", "recursion"))
        assert_same_samples(ref, d)


def test_single_crossover_does_not_depend_on_entry_order():
    entries = crossover_entries(8, seed=3)
    ref = build("rate", 8, entries)
    assert ref.is_single_crossover()
    for d in [build("rate", 8, e) for e in permutations(entries)]:
        assert_same_model(ref, d)
        assert_same_generator(ref, d)
        assert_same_routes(ref, d, ("semigroup", "recursion", "single_crossover"))
        assert_same_samples(ref, d)


def write_config(path, d, entries, run):
    """A config of `d` with its entries listed in the order of `entries`."""
    cfg = d.to_config()
    value = {e["partition"]: e["value"] for e in cfg["entries"]}
    cfg["entries"] = [{"partition": a.to_text(), "value": value[a.to_text()]} for a in entries]
    path.write_text(json.dumps({"recombination": cfg, "run": run}))
    return str(path)


@pytest.mark.parametrize("model", ["general", "crossover"])
def test_cli_results_do_not_depend_on_config_entry_order(model, tmp_path):
    if model == "general":
        entries = general_entries(4, seed=5)
        d = build("rate", 4, entries)
    else:
        entries = crossover_entries(6, seed=5)
        d = build("rate", 6, entries)
    runs = {"coefficients": {"t": 1.0}, "crosscheck": {"t_grid": list(TIMES)}}
    outputs = []
    for k, order in enumerate([entries] + permutations(entries)):
        files = {}
        for command, run in runs.items():
            config = write_config(tmp_path / f"{command}{k}.json", d, order, run)
            out = tmp_path / f"out-{command}{k}"
            assert cli.main([command, "--config", config, "--out", str(out)]) == 0
            files.update({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        outputs.append(files)
    assert sorted(outputs[0]) == ["coefficients.csv", "crosscheck.json"]
    assert all(files == outputs[0] for files in outputs[1:])
