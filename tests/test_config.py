"""JSON run configuration: strict parsing, JSON-path error naming, and
assembly into domain objects."""

import copy
import json

import pytest

from recomb import ConfigError, ModelConfig, RunSpec

BASE = {
    "recombination": {
        "n": 3,
        "mu": 1.0,
        "style": "probability",
        "entries": [
            {"partition": "1|2,3", "value": 0.3},
            {"partition": "1,2|3", "value": 0.5},
            {"partition": "1,3|2", "value": 0.2},
        ],
    },
    "space": {"alphabet_sizes": [2, 2, 2]},
    "initial": {
        "kind": "explicit",
        "entries": [
            {"type": [0, 0, 0], "mass": 0.55},
            {"type": [1, 1, 1], "mass": 0.3},
            {"type": [0, 1, 0], "mass": 0.15},
        ],
    },
    "run": {"mode": "solve-exact", "t": 1.0, "method": "semigroup", "seed": 7},
    "output": {"format": "json"},
}


def cfg(mutate=None):
    data = copy.deepcopy(BASE)
    if mutate:
        mutate(data)
    return data


def test_full_parse(model3):
    mc = ModelConfig.parse(BASE)
    assert mc.rates.mu == 1.0
    assert mc.rates.style == "probability"
    assert mc.rates.entries == model3.entries
    assert mc.space.sites == (1, 2, 3)
    assert mc.space.alphabet_sizes == (2, 2, 2)
    assert mc.initial.weight((0, 0, 0)) == pytest.approx(0.55, abs=1e-15)
    assert mc.initial.mass == pytest.approx(1.0, abs=1e-12)
    assert mc.run.mode == "solve-exact"
    assert mc.run.t == 1.0
    assert mc.run.method == "semigroup"
    assert mc.run.seed == 7
    assert mc.output_format == "json"
    assert mc.times() == [1.0]


def test_minimal_parse():
    mc = ModelConfig.parse({"recombination": BASE["recombination"]})
    assert mc.space is None and mc.initial is None and mc.output_format is None
    assert mc.run.mode is None and mc.run.seed is None


def test_load_round_trip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(BASE))
    mc = ModelConfig.load(str(path))
    assert mc.run.t == 1.0
    with pytest.raises(ConfigError, match="cannot read config"):
        ModelConfig.load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ModelConfig.load(str(bad))


def test_top_level_validation():
    with pytest.raises(ConfigError, match="config: expected an object"):
        ModelConfig.parse([1, 2])
    with pytest.raises(ConfigError, match="config.extra: unknown field"):
        ModelConfig.parse(cfg(lambda d: d.__setitem__("extra", 1)))
    with pytest.raises(ConfigError, match="config.recombination: required"):
        ModelConfig.parse({"run": {}})


@pytest.mark.parametrize(
    "patch, fragment",
    [
        (lambda r: r.update(t_grid=[0.0, 1.0]), "either t or t_grid"),
        (lambda r: r.update(t=-1.0), "config.run.t: must be nonnegative"),
        (lambda r: r.update(dt=0.0), "config.run.dt: must be positive"),
        (lambda r: r.update(mode="explode"), "config.run.mode: unknown mode"),
        (lambda r: r.update(method="euler"), "config.run.method: unknown method"),
        (lambda r: r.update(n_individuals=True), "expected a positive integer"),
        (lambda r: r.update(n_individuals=0), "must be >= 1"),
        (lambda r: r.update(population_sizes=[]), "expected a nonempty list"),
        (
            lambda r: r.update(population_sizes=[5, 0]),
            r"population_sizes\[1\]: must be >= 1",
        ),
        (lambda r: r.update(replicates=0), "config.run.replicates"),
        (lambda r: r.update(seed=True), "config.run.seed: expected an integer"),
        (lambda r: r.update(seed="7"), "config.run.seed: expected an integer"),
        (lambda r: r.update(walltime=60), "config.run.walltime: unknown field"),
    ],
)
def test_run_block_validation(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ModelConfig.parse(cfg(lambda d: patch(d["run"])))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize(
    "patch, path",
    [
        (lambda r, v: r.update(t=v), "config.run.t"),
        (lambda r, v: r.update(dt=v), "config.run.dt"),
        (lambda r, v: (r.pop("t"), r.update(t_grid=[0.5, v])), r"config.run.t_grid\[1\]"),
        (
            lambda r, v: (r.pop("t"), r.update(t_grid={"start": 0, "stop": v, "steps": 3})),
            "config.run.t_grid.stop",
        ),
    ],
    ids=["t", "dt", "t_grid-list", "t_grid-stop"],
)
def test_non_finite_reals_refused(patch, path, bad):
    with pytest.raises(ConfigError, match=f"{path}: must be finite"):
        ModelConfig.parse(cfg(lambda d: patch(d["run"], bad)))


def test_non_finite_reals_refused_in_json_text():
    text = json.dumps(cfg()).replace('"t": 1.0', '"t": NaN')
    assert "NaN" in text
    with pytest.raises(ConfigError, match="config.run.t: must be finite"):
        ModelConfig.parse(json.loads(text))
    mass = cfg(lambda d: d["initial"]["entries"][0].update(mass=float("inf")))
    with pytest.raises(ConfigError, match=r"entries\[0\].mass: must be finite"):
        ModelConfig.parse(mass)


def test_grid_list_form():
    spec = RunSpec.parse({"t_grid": [0, 0.5, 1]})
    assert spec.t_grid == [0.0, 0.5, 1.0]
    for bad, fragment in [
        ([], "must not be empty"),
        ([-1.0, 2.0], "must be nonnegative"),
        ([0.0, 0.0, 1.0], "strictly increasing"),
        ([0.0, True], r"t_grid\[1\]: expected a real number"),
        (5, "expected a list"),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            RunSpec.parse({"t_grid": bad})


def test_grid_linspace_form():
    spec = RunSpec.parse({"t_grid": {"start": 0, "stop": 2, "steps": 5}})
    assert spec.t_grid == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert RunSpec.parse({"t_grid": {"start": 3, "stop": 3, "steps": 1}}).t_grid == [3.0]
    for bad, fragment in [
        ({"start": 2, "stop": 1, "steps": 3}, "stop must be >= start"),
        ({"start": 0, "stop": 1}, "t_grid.steps: required"),
        ({"start": 0, "stop": 1, "steps": 3, "num": 4}, "t_grid.num: unknown field"),
        ({"start": 0, "stop": 1, "steps": 0}, "must be >= 1"),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            RunSpec.parse({"t_grid": bad})


def test_space_validation():
    for patch, fragment in [
        (lambda d: d.__setitem__("space", {}), "alphabet_sizes: required"),
        (
            lambda d: d.__setitem__("space", {"alphabet_sizes": "22"}),
            "expected a nonempty list",
        ),
        (
            lambda d: d.__setitem__("space", {"alphabet_sizes": [2, 2]}),
            "2 sites but the",
        ),
        (
            lambda d: d.__setitem__("space", {"alphabet_sizes": [2, 0, 2]}),
            r"alphabet_sizes\[1\]",
        ),
        (
            lambda d: d.__setitem__("space", {"alphabet_sizes": [2, 2, 2], "x": 1}),
            "config.space.x: unknown field",
        ),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            ModelConfig.parse(cfg(patch))


def test_initial_kinds():
    uni = ModelConfig.parse(cfg(lambda d: d.__setitem__("initial", {"kind": "uniform"})))
    assert uni.initial.weight((1, 0, 1)) == pytest.approx(0.125, abs=1e-15)
    dirac = ModelConfig.parse(
        cfg(lambda d: d.__setitem__("initial", {"kind": "dirac", "type": [1, 0, 1]}))
    )
    assert dirac.initial.weight((1, 0, 1)) == 1.0


def test_initial_validation():
    def set_init(value):
        return lambda d: d.__setitem__("initial", value)

    no_space = cfg()
    del no_space["space"]
    with pytest.raises(ConfigError, match="needs config.space"):
        ModelConfig.parse(no_space)
    for value, fragment in [
        ({"kind": "gaussian"}, "config.initial.kind"),
        ({"kind": "dirac"}, "config.initial.type: required"),
        ({"kind": "dirac", "type": [0]}, "config.initial.type"),
        ({"kind": "dirac", "type": [0, 0, 9]}, "config.initial.type"),
        ({"kind": "explicit", "entries": []}, "expected a nonempty list"),
        (
            {"kind": "explicit", "entries": [{"type": [0, 0, 0]}]},
            "needs both type and mass",
        ),
        (
            {"kind": "explicit", "entries": [{"type": [0, 0, 0], "mass": 1, "w": 2}]},
            r"entries\[0\].w: unknown field",
        ),
        (
            {
                "kind": "explicit",
                "entries": [{"type": [0, 0, 0], "mass": 0.9}],
            },
            "masses sum to",
        ),
        (
            {
                "kind": "explicit",
                "entries": [{"type": [0, 0, 0], "mass": -1.0}],
            },
            "config.initial.entries",
        ),
        ({"kind": "uniform", "type": [0, 0, 0]}, "config.initial.type: unknown field"),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            ModelConfig.parse(cfg(set_init(value)))


def test_uniform_start_needs_dense_space():
    def patch(d):
        d["space"] = {"alphabet_sizes": [128, 128, 128]}
        d["initial"] = {"kind": "uniform"}

    with pytest.raises(ConfigError, match="config.initial"):
        ModelConfig.parse(cfg(patch))


def test_output_validation():
    with pytest.raises(ConfigError, match="expected 'csv' or 'json'"):
        ModelConfig.parse(cfg(lambda d: d.__setitem__("output", {"format": "xml"})))
    with pytest.raises(ConfigError, match="config.output.path: unknown field"):
        ModelConfig.parse(cfg(lambda d: d.__setitem__("output", {"path": "x"})))


def test_times_resolution():
    grid = cfg(lambda d: d.__setitem__("run", {"t_grid": [0.0, 1.0, 2.0]}))
    assert ModelConfig.parse(grid).times() == [0.0, 1.0, 2.0]
    bare = ModelConfig.parse(cfg(lambda d: d.__setitem__("run", {})))
    with pytest.raises(ConfigError, match="needs t or t_grid"):
        bare.times()


def test_require_names_missing_fields():
    mc = ModelConfig.parse({"recombination": BASE["recombination"]})
    with pytest.raises(ConfigError, match="config.space: required"):
        mc.require("space")
    with pytest.raises(ConfigError, match="config.initial: required"):
        mc.require("initial")
    with pytest.raises(ConfigError, match="t or t_grid required"):
        mc.require("times")
    with pytest.raises(ConfigError, match="config.run.dt: required"):
        mc.require("dt")
    with pytest.raises(ConfigError, match="config.run.seed: required"):
        mc.require("seed")
    full = ModelConfig.parse(cfg(lambda d: d["run"].update(dt=0.01)))
    full.require("space", "initial", "times", "dt", "seed", "method")  # no raise


def test_rate_style_block():
    block = {
        "n": 2,
        "style": "rate",
        "entries": [{"partition": "1|2", "value": 0.4}],
        "residual_rate": 0.1,
    }
    mc = ModelConfig.parse({"recombination": block})
    assert mc.rates.style == "rate"
    assert mc.rates.mu == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ConfigError, match="only valid with style 'probability'"):
        ModelConfig.parse({"recombination": {**block, "mu": 1.0}})
    prob = dict(BASE["recombination"], residual_rate=0.5)
    with pytest.raises(ConfigError, match="only valid with style 'rate'"):
        ModelConfig.parse({"recombination": prob})


@pytest.mark.parametrize("n", [True, 2.9, "3"])
def test_site_count_must_be_a_json_int(n):
    data = {"recombination": {"n": n, "style": "rate", "residual_rate": 1.0}}
    with pytest.raises(ConfigError, match=r"config\.recombination\.n: expected a positive integer"):
        ModelConfig.parse(data)
