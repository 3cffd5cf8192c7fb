"""Recombination distributions: rates, probabilities, marginals, config glue.

The three-site reference model (splits 1|2,3 / 1,2|3 / 1,3|2 with
probabilities 0.3 / 0.5 / 0.2 at mu = 1) has fully hand-checked marginal
split rates, frozen below.
"""

import pytest

from recomb import (
    ConfigError,
    DomainError,
    Partition,
    RecombinationDistribution,
    cut_partition,
)


P = Partition.from_text


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_probability_style_basics(model3):
    assert model3.n_sites == 3
    assert model3.mu == 1.0
    assert model3.style == "probability"
    assert model3.probability(P("1|2,3")) == 0.3
    assert model3.rate(P("1,2|3")) == 0.5
    assert model3.residual_probability == pytest.approx(0.0, abs=1e-15)
    assert model3.probability(Partition.one_block((1, 2, 3))) == pytest.approx(
        0.0, abs=1e-15
    )


def test_event_arrays_encode_the_support_in_index_order(model3):
    masks, probs = model3.event_arrays()
    # sort_key order: 1|2,3 < 1,2|3 < 1,3|2; bit i is site i + 1
    assert masks.dtype.name == "int64" and probs.dtype.name == "float64"
    assert masks.tolist() == [0b001, 0b011, 0b101]
    assert probs.tolist() == [0.3, 0.5, 0.2]


def test_residual_probability():
    d = RecombinationDistribution.from_probabilities(
        (1, 2, 3), 2.0, {P("1|2,3"): 0.3, P("1,2|3"): 0.5}
    )
    assert d.residual_probability == pytest.approx(0.2, abs=1e-15)
    assert d.probability(Partition.one_block((1, 2, 3))) == pytest.approx(0.2, abs=1e-15)
    assert d.rate(Partition.one_block((1, 2, 3))) == pytest.approx(0.4, abs=1e-15)


def test_zero_probability_entries_are_dropped():
    d = RecombinationDistribution.from_probabilities(
        (1, 2), 1.0, {P("1|2"): 0.0}
    )
    assert dict(d.support()) == {}
    assert d.probability(P("1|2")) == 0.0


def test_constructor_validation():
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities((1, 2), 0.0, {P("1|2"): 1.0})
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities((1, 2), -1.0, {P("1|2"): 1.0})
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities((1, 2), 1.0, {P("1|2"): -0.2})
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities(
            (1, 2, 3), 1.0, {P("1|2|3"): 0.5}
        )
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities(
            (1, 2, 3), 1.0, {Partition.one_block((1, 2, 3)): 0.5}
        )
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities(
            (1, 2), 1.0, {P("1|2"): 1.2}
        )
    with pytest.raises(DomainError):
        RecombinationDistribution.from_probabilities(
            (1, 2, 3), 1.0, {P("1|2"): 0.5}  # partition of the wrong ground set
        )


def test_from_rates_implies_mu():
    d = RecombinationDistribution.from_rates(
        (1, 2, 3), {P("1|2,3"): 0.3, P("1,2|3"): 0.5}, residual_rate=0.2
    )
    assert d.style == "rate"
    assert d.mu == pytest.approx(1.0, abs=1e-15)
    assert d.rate(P("1|2,3")) == pytest.approx(0.3, abs=1e-15)
    assert d.residual_probability == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(DomainError):
        RecombinationDistribution.from_rates((1, 2), {P("1|2"): 1.0}, residual_rate=-1.0)
    with pytest.raises(DomainError):
        RecombinationDistribution.from_rates((1, 2), {P("1|2"): 0.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_model_values_refused(bad):
    with pytest.raises(DomainError, match="mu must be positive and finite"):
        RecombinationDistribution.from_probabilities((1, 2), bad, {P("1|2"): 0.5})
    with pytest.raises(DomainError, match="nonnegative and finite"):
        RecombinationDistribution.from_probabilities((1, 2), 1.0, {P("1|2"): bad})
    with pytest.raises(DomainError, match="nonnegative and finite"):
        RecombinationDistribution.from_rates((1, 2, 3), {P("1|2,3"): bad, P("1,2|3"): 0.5})
    with pytest.raises(DomainError, match="residual rate"):
        RecombinationDistribution.from_rates((1, 2), {P("1|2"): 1.0}, residual_rate=bad)
    with pytest.raises(DomainError, match="nonnegative and finite"):
        RecombinationDistribution.single_crossover([0.3, bad])


def test_rates_summing_past_the_float_range_refused():
    with pytest.raises(DomainError, match="mu must be positive and finite"):
        RecombinationDistribution.single_crossover([1e308, 1e308])


def test_single_crossover_constructor():
    d = RecombinationDistribution.single_crossover([0.3, 0.7, 1.1])
    assert d.ground == (1, 2, 3, 4)
    assert d.is_single_crossover()
    for k, rho in enumerate([0.3, 0.7, 1.1], start=1):
        assert d.cut_rate(k) == pytest.approx(rho, rel=1e-15)
        assert d.rate(cut_partition(4, k)) == pytest.approx(rho, rel=1e-15)
    assert d.mu == pytest.approx(2.1, rel=1e-15)
    # models on the same sites share their cut partitions
    other = RecombinationDistribution.single_crossover([0.5, 0.5, 0.5])
    assert all(a is b for a, b in zip(d.entries, other.entries))
    with pytest.raises(DomainError):
        RecombinationDistribution.single_crossover([])


def test_is_single_crossover_false_cases(model3):
    assert not model3.is_single_crossover()  # 1,3|2 is not an interval split
    shifted = RecombinationDistribution.from_rates((2, 3), {P("2|3"): 1.0})
    assert not shifted.is_single_crossover()  # ground set must be 1..n


# ---------------------------------------------------------------------------
# marginal split rates (hand-checked on the reference model)
# ---------------------------------------------------------------------------


def test_split_rates_frozen_values(model3):
    # events splitting {1,2}: 1|2,3 (0.3) and 1,3|2 (0.2)
    assert model3.split_rate((1, 2)) == pytest.approx(0.5, abs=1e-15)
    # events splitting {2,3}: 1,2|3 (0.5) and 1,3|2 (0.2)
    assert model3.split_rate((2, 3)) == pytest.approx(0.7, abs=1e-15)
    # events splitting {1,3}: 1|2,3 (0.3) and 1,2|3 (0.5)
    assert model3.split_rate((1, 3)) == pytest.approx(0.8, abs=1e-15)
    # every event splits the full site set
    assert model3.split_rate((1, 2, 3)) == pytest.approx(1.0, abs=1e-15)
    # singletons cannot split
    assert model3.split_rate((2,)) == 0.0


def test_block_split_rates_hand_values(model3):
    on12 = model3.block_split_rates((1, 2))
    assert set(on12) == {P("1|2")}
    assert on12[P("1|2")] == pytest.approx(0.5, abs=1e-15)
    full = model3.block_split_rates((1, 2, 3))
    assert full == {
        P("1|2,3"): pytest.approx(0.3),
        P("1,2|3"): pytest.approx(0.5),
        P("1,3|2"): pytest.approx(0.2),
    }
    assert model3.block_split_rates((3,)) == {}


def test_marginal_rate_and_probability(model3):
    assert model3.marginal_rate((1, 2), P("1|2")) == pytest.approx(0.5, abs=1e-15)
    # events keeping {1,2} whole: 1,2|3 plus the (zero) residual
    whole = Partition.one_block((1, 2))
    assert model3.marginal_rate((1, 2), whole) == pytest.approx(0.5, abs=1e-15)
    assert model3.marginal_probability((1, 2), P("1|2")) == pytest.approx(
        0.5, abs=1e-15
    )
    with pytest.raises(DomainError):
        model3.marginal_rate((1, 2), P("1|2|3"))
    with pytest.raises(DomainError):
        model3.marginal_rate((1, 2), P("1|3"))
    with pytest.raises(DomainError):
        model3.marginal_rate((), whole)
    with pytest.raises(DomainError):
        model3.marginal_rate((1, 9), whole)


def test_marginal_rate_includes_residual_for_whole_subset():
    d = RecombinationDistribution.from_probabilities(
        (1, 2, 3), 2.0, {P("1|2,3"): 0.3, P("1,2|3"): 0.5}
    )
    # residual 0.2 at mu=2 contributes rate 0.4; 1|2,3 keeps {2,3} whole (0.6)
    assert d.marginal_rate((2, 3), Partition.one_block((2, 3))) == pytest.approx(
        1.0, abs=1e-14
    )


def test_unseparated_adjacent_pairs():
    d = RecombinationDistribution.from_probabilities(
        (1, 2, 3), 1.0, {P("1|2,3"): 0.5}
    )
    assert d.unseparated_adjacent_pairs() == [(2, 3)]
    full = RecombinationDistribution.single_crossover([1.0, 1.0])
    assert full.unseparated_adjacent_pairs() == []


# ---------------------------------------------------------------------------
# config round trip and error paths
# ---------------------------------------------------------------------------


def test_config_round_trip_probability(model3):
    cfg = model3.to_config()
    back = RecombinationDistribution.from_config(cfg)
    assert back.ground == model3.ground
    assert back.mu == model3.mu
    assert back.style == model3.style
    assert back.entries == model3.entries


def test_config_round_trip_rate():
    d = RecombinationDistribution.from_rates(
        (1, 2, 3), {P("1|2,3"): 0.3, P("1,2|3"): 0.5}, residual_rate=0.2
    )
    cfg = d.to_config()
    assert cfg["style"] == "rate"
    assert cfg["residual_rate"] == pytest.approx(0.2, abs=1e-14)
    back = RecombinationDistribution.from_config(cfg)
    assert back.mu == pytest.approx(d.mu, rel=1e-15)
    assert back.entries.keys() == d.entries.keys()
    for a in d.entries:
        assert back.entries[a] == pytest.approx(d.entries[a], rel=1e-15)


@pytest.mark.parametrize(
    "cfg, fragment",
    [
        ({"n": 3, "style": "probability", "mu": 1.0, "bogus": 1}, "recombination.bogus"),
        ({"style": "probability", "mu": 1.0}, "recombination.n"),
        ({"n": 0, "style": "probability", "mu": 1.0}, "recombination.n"),
        ({"n": 3, "style": "blend", "mu": 1.0}, "recombination.style"),
        ({"n": 3, "style": "probability"}, "recombination.mu"),
        ({"n": 3, "style": "rate", "mu": 1.0}, "recombination.mu"),
        (
            {"n": 3, "style": "probability", "mu": 1.0, "residual_rate": 0.1},
            "recombination.residual_rate",
        ),
        (
            {"n": 3, "style": "probability", "mu": 1.0, "entries": {"1|2,3": 0.3}},
            "recombination.entries",
        ),
        (
            {
                "n": 3,
                "style": "probability",
                "mu": 1.0,
                "entries": [{"partition": "1|", "value": 0.3}],
            },
            "recombination.entries[0].partition",
        ),
        (
            {
                "n": 3,
                "style": "probability",
                "mu": 1.0,
                "entries": [{"partition": "1|2", "value": 0.3}],
            },
            "recombination.entries[0].partition",
        ),
        (
            {
                "n": 3,
                "style": "probability",
                "mu": 1.0,
                "entries": [{"partition": "1|2,3", "value": "x"}],
            },
            "recombination.entries[0].value",
        ),
        (
            {
                "n": 3,
                "style": "probability",
                "mu": 1.0,
                "entries": [
                    {"partition": "1|2,3", "value": 0.3},
                    {"partition": "1|2,3", "value": 0.1},
                ],
            },
            "recombination.entries[1].partition",
        ),
        (
            {
                "n": 3,
                "style": "probability",
                "mu": 1.0,
                "entries": [{"partition": "1|2,3", "value": 0.3, "extra": 1}],
            },
            "recombination.entries[0].extra",
        ),
        (
            {
                "n": 2,
                "style": "probability",
                "mu": 1.0,
                "entries": [{"partition": "1|2", "value": 1.5}],
            },
            "recombination:",
        ),
    ],
)
def test_config_error_paths(cfg, fragment):
    with pytest.raises(ConfigError) as err:
        RecombinationDistribution.from_config(cfg)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "bad", ["0.3", float("nan"), float("inf"), True, 10**400],
    ids=["string", "nan", "inf", "bool", "huge-int"],
)
@pytest.mark.parametrize(
    "cfg, path",
    [
        (lambda v: {"n": 2, "style": "probability", "mu": 1.0,
                    "entries": [{"partition": "1|2", "value": v}]},
         r"recombination.entries\[0\].value"),
        (lambda v: {"n": 2, "style": "probability", "mu": v,
                    "entries": [{"partition": "1|2", "value": 0.3}]},
         "recombination.mu"),
        (lambda v: {"n": 2, "style": "rate", "residual_rate": v,
                    "entries": [{"partition": "1|2", "value": 0.3}]},
         "recombination.residual_rate"),
        (lambda v: {"n": 2, "style": "rate",
                    "entries": [{"partition": "1|2", "value": v}]},
         r"recombination.entries\[0\].value"),
    ],
    ids=["probability-value", "mu", "residual_rate", "rate-value"],
)
def test_config_numbers_are_finite_json_reals(cfg, path, bad):
    with pytest.raises(ConfigError, match=f"{path}: (expected a real number|must be finite)"):
        RecombinationDistribution.from_config(cfg(bad))


def test_config_error_is_value_error():
    with pytest.raises(ValueError):
        RecombinationDistribution.from_config({"n": 3})
