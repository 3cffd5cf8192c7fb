"""End-to-end command line tests through real subprocesses: exit codes,
output files, format selection, seeding, and parallel determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

from recomb import (
    Partition,
    build_generator,
    coefficients_semigroup,
    solve_exact,
)

BENCH_RECOMB = {
    "n": 3,
    "mu": 1.0,
    "style": "probability",
    "entries": [
        {"partition": "1|2,3", "value": 0.3},
        {"partition": "1,2|3", "value": 0.5},
        {"partition": "1,3|2", "value": 0.2},
    ],
}
BENCH_SPACE = {"alphabet_sizes": [2, 2, 2]}
BENCH_INITIAL = {
    "kind": "explicit",
    "entries": [
        {"type": [0, 0, 0], "mass": 0.55},
        {"type": [1, 1, 1], "mass": 0.3},
        {"type": [0, 1, 0], "mass": 0.15},
    ],
}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_configs")

    def put(name, payload):
        path = root / name
        path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
        return str(path)

    return {
        "model": put(
            "model.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {"t": 1.0, "seed": 1},
            },
        ),
        "model_json_out": put(
            "model_json_out.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {"t": 1.0, "seed": 1},
                "output": {"format": "json"},
            },
        ),
        "ode": put(
            "ode.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {
                    "t_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
                    "dt": 0.01,
                },
            },
        ),
        "disc": put(
            "disc.json",
            {
                "recombination": {
                    "n": 2,
                    "mu": 1.0,
                    "style": "probability",
                    "entries": [{"partition": "1|2", "value": 0.5}],
                },
                "space": {"alphabet_sizes": [2, 2]},
                "initial": {
                    "kind": "explicit",
                    "entries": [
                        {"type": [0, 0], "mass": 0.5},
                        {"type": [1, 1], "mass": 0.5},
                    ],
                },
                "run": {"mode": "solve-discrete", "t": 2},
            },
        ),
        "moran": put(
            "moran.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {
                    "t_grid": [0.5, 1.0],
                    "n_individuals": 30,
                    "replicates": 3,
                    "seed": 5,
                },
            },
        ),
        "moran_noseed": put(
            "moran_noseed.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {"t_grid": [0.5], "n_individuals": 10, "replicates": 2},
            },
        ),
        "arg": put(
            "arg.json",
            {
                "recombination": BENCH_RECOMB,
                "run": {"t": 1.0, "n_individuals": 50, "replicates": 4, "seed": 9},
            },
        ),
        "lln": put(
            "lln.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {
                    "t": 0.5,
                    "population_sizes": [20, 50],
                    "replicates": 5,
                    "seed": 3,
                },
            },
        ),
        "cross": put(
            "cross.json",
            {"recombination": BENCH_RECOMB, "run": {"t_grid": [0.5, 1.0]}},
        ),
        "tied_sc": put(
            "tied_sc.json",
            {
                "recombination": {
                    "n": 3,
                    "style": "rate",
                    "entries": [
                        {"partition": "1|2,3", "value": 0.5},
                        {"partition": "1,2|3", "value": 0.5},
                    ],
                },
                "run": {"t": 1.0},
            },
        ),
        "tied_general": put(
            "tied_general.json",
            {
                "recombination": {
                    "n": 3,
                    "style": "rate",
                    "entries": [
                        {"partition": "1|2,3", "value": 0.5},
                        {"partition": "1,2|3", "value": 0.5},
                        {"partition": "1,3|2", "value": 0.3},
                    ],
                },
                "run": {"t": 1.0},
            },
        ),
        "linked": put(
            "linked.json",
            {
                "recombination": {
                    "n": 3,
                    "style": "rate",
                    "entries": [{"partition": "1|2,3", "value": 1.0}],
                },
                "run": {"t": 1.0},
            },
        ),
        "modelocked": put(
            "modelocked.json",
            {
                "recombination": BENCH_RECOMB,
                "space": BENCH_SPACE,
                "initial": BENCH_INITIAL,
                "run": {"mode": "solve-exact", "t": 1.0},
            },
        ),
        "badjson": put("bad.json", "{nope"),
        "unknown": put("unknown.json", {"recombination": BENCH_RECOMB, "bogus": 1}),
    }


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "recomb", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def no_stray_tmp(directory):
    return not [f for f in os.listdir(directory) if f.startswith(".tmp-")]


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def test_coefficients_csv_matches_library(configs, tmp_path, model3, index3):
    out = tmp_path / "c"
    res = run_cli("coefficients", "--config", configs["model"], "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert f"wrote {out / 'coefficients.csv'}" in res.stdout
    header, rows = read_csv(out / "coefficients.csv")
    assert header == ["partition", "a_t"]
    exact = coefficients_semigroup(build_generator(model3, index3), 1.0)
    assert [r[0] for r in rows] == [a.to_text() for a in index3]
    for text, val in rows:
        assert float(val) == exact.value(Partition.from_text(text))
    assert no_stray_tmp(out)


def test_coefficients_json_with_method_flag(configs, tmp_path, model3, index3):
    out = tmp_path / "c"
    res = run_cli(
        "coefficients", "--config", configs["model"], "--out", str(out),
        "--format", "json", "--method", "recursion",
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "coefficients.json").read_text())
    assert payload["t"] == 1.0
    exact = coefficients_semigroup(build_generator(model3, index3), 1.0)
    for text, val in payload["coefficients"].items():
        assert abs(val - exact.value(Partition.from_text(text))) <= 1e-13


def test_coefficients_wrong_method_for_model(configs, tmp_path):
    res = run_cli(
        "coefficients", "--config", configs["model"], "--out", str(tmp_path),
        "--method", "single_crossover",
    )
    assert res.returncode == 3
    assert res.stderr.startswith("error:")


def test_recursion_refused_on_tied_rates(configs, tmp_path):
    res = run_cli(
        "coefficients", "--config", configs["tied_sc"], "--out", str(tmp_path),
        "--method", "recursion",
    )
    assert res.returncode == 3
    assert "collide" in res.stderr


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("method", ["semigroup", "single_crossover"])
def test_coefficients_refuse_non_finite_time(tmp_path, value, method):
    path = tmp_path / "model.json"
    recomb = {"n": 3, "style": "rate", "entries": [
        {"partition": "1|2,3", "value": 0.4}, {"partition": "1,2|3", "value": 0.9},
    ]}
    path.write_text(json.dumps({"recombination": recomb, "run": {"t": 1.0}}).replace(
        '"t": 1.0', f'"t": {value}'))
    out = tmp_path / "out"
    res = run_cli("coefficients", "--config", str(path), "--out", str(out),
                  "--method", method)
    assert res.returncode == 2, res.stderr
    assert "config.run.t: must be finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (out / "coefficients.csv").exists()


@pytest.mark.parametrize(
    "style, field, value",
    [
        ("probability", "value", "NaN"),
        ("probability", "value", '"0.3"'),
        ("probability", "mu", "Infinity"),
        ("rate", "value", "Infinity"),
        ("rate", "residual_rate", "NaN"),
    ],
)
def test_model_numbers_must_be_finite_reals(tmp_path, style, field, value):
    path = tmp_path / "model.json"
    recomb = {"n": 3, "style": style, "entries": [{"partition": "1|2,3", "value": 0.4}]}
    recomb["mu" if style == "probability" else "residual_rate"] = 1.0
    text = json.dumps({"recombination": recomb, "run": {"t": 1.0}})
    target = '"value": 0.4' if field == "value" else f'"{field}": 1.0'
    path.write_text(text.replace(target, f'"{field}": {value}'))
    out = tmp_path / "out"
    res = run_cli("coefficients", "--config", str(path), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f".{field}: " in res.stderr
    assert "Traceback" not in res.stderr
    assert not (out / "coefficients.csv").exists()


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def test_solve_exact_json_trajectory(configs, tmp_path, model3, w0_3):
    out = tmp_path / "x"
    res = run_cli(
        "solve-exact", "--config", configs["model"], "--out", str(out),
        "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "trajectory.json").read_text())
    assert payload["times"] == [0.0, 1.0]
    final = payload["states"][1]
    expected = solve_exact(model3, w0_3, 1.0)
    for ty, v in expected.items():
        label = "-".join(str(d) for d in ty)
        assert final[label] == pytest.approx(v, abs=1e-15)


def test_solve_ode_csv_grid(configs, tmp_path, model3, w0_3):
    out = tmp_path / "o"
    res = run_cli("solve-ode", "--config", configs["ode"], "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out / "trajectory.csv")
    assert header[0] == "t" and header[1] == "0-0-0" and len(header) == 9
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    exact = solve_exact(model3, w0_3, 1.0).to_array()
    got = [float(v) for v in rows[2][1:]]
    assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-8


def test_solve_discrete_hand_values(configs, tmp_path):
    out = tmp_path / "d"
    res = run_cli("solve-discrete", "--config", configs["disc"], "--out", str(out))
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "trajectory.csv")
    assert [float(r[0]) for r in rows] == [0.0, 1.0, 2.0]
    assert [float(v) for v in rows[1][1:]] == [0.375, 0.125, 0.125, 0.375]


def test_solve_discrete_refuses_a_fractional_generation_count(configs, tmp_path):
    # the count rule lives in the library: a domain error, exit 3
    cfg = json.loads(open(configs["disc"]).read())
    cfg["run"]["t"] = 2.5
    path = tmp_path / "disc_frac.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("solve-discrete", "--config", str(path), "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert "generation count must be a whole number, got 2.5" in res.stderr


def test_format_resolution_order(configs, tmp_path):
    from_config = tmp_path / "a"
    res = run_cli("solve-exact", "--config", configs["model_json_out"], "--out", str(from_config))
    assert res.returncode == 0
    assert (from_config / "trajectory.json").exists()
    overridden = tmp_path / "b"
    res = run_cli(
        "solve-exact", "--config", configs["model_json_out"], "--out", str(overridden),
        "--format", "csv",
    )
    assert res.returncode == 0
    assert (overridden / "trajectory.csv").exists()
    assert not (overridden / "trajectory.json").exists()


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


def test_moran_csv_and_parallel_determinism(configs, tmp_path):
    one, many = tmp_path / "j1", tmp_path / "j3"
    res1 = run_cli("simulate-moran", "--config", configs["moran"], "--out", str(one))
    res3 = run_cli(
        "simulate-moran", "--config", configs["moran"], "--out", str(many),
        "--jobs", "3",
    )
    assert res1.returncode == 0 and res3.returncode == 0, res1.stderr + res3.stderr
    text1 = (one / "moran.csv").read_bytes()
    assert text1 == (many / "moran.csv").read_bytes()
    header, rows = read_csv(one / "moran.csv")
    assert header == ["replicate", "t", "type", "count"]
    totals = {}
    for rep, t, _, count in rows:
        key = (rep, t)
        totals[key] = totals.get(key, 0) + int(count)
    assert set(totals) == {(str(r), t) for r in range(3) for t in ("0.5", "1.0")}
    assert all(v == 30 for v in totals.values())
    assert no_stray_tmp(one)


def test_arg_json_and_parallel_determinism(configs, tmp_path):
    one, two = tmp_path / "j1", tmp_path / "j2"
    res1 = run_cli(
        "simulate-arg", "--config", configs["arg"], "--out", str(one),
        "--format", "json",
    )
    res2 = run_cli(
        "simulate-arg", "--config", configs["arg"], "--out", str(two),
        "--format", "json", "--jobs", "2",
    )
    assert res1.returncode == 0 and res2.returncode == 0, res1.stderr + res2.stderr
    assert (one / "arg.json").read_bytes() == (two / "arg.json").read_bytes()
    payload = json.loads((one / "arg.json").read_text())
    assert [e["replicate"] for e in payload] == [0, 1, 2, 3]
    for entry in payload:
        p = Partition.from_text(entry["partition"])
        assert p.ground == (1, 2, 3)
        assert 1 <= entry["ancestors"] <= 50


def test_lln_report_outputs(configs, tmp_path):
    out = tmp_path / "lln"
    res = run_cli(
        "lln-report", "--config", configs["lln"], "--out", str(out),
        "--format", "json",
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "lln.json").read_text())
    assert payload["population_sizes"] == [20, 50]
    assert len(payload["mean_tv"]) == 2
    assert json.loads((out / "report.json").read_text()) == payload
    out_csv = tmp_path / "lln_csv"
    res = run_cli("lln-report", "--config", configs["lln"], "--out", str(out_csv))
    assert res.returncode == 0
    header, rows = read_csv(out_csv / "lln.csv")
    assert header == ["n_individuals", "mean_tv", "sd_tv"]
    assert len(rows) == 2
    assert (out_csv / "report.json").exists()


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def test_crosscheck_passes_on_benchmark(configs, tmp_path):
    out = tmp_path / "cc"
    res = run_cli("crosscheck", "--config", configs["cross"], "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "crosscheck ok" in res.stdout
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["pass"] is True
    assert payload["routes"] == ["semigroup", "recursion"]
    assert payload["generic_rates"] is True
    assert payload["max_deviation"] <= 1e-12


def test_crosscheck_breach_exits_4_but_writes_report(configs, tmp_path):
    out = tmp_path / "cc"
    res = run_cli(
        "crosscheck", "--config", configs["cross"], "--out", str(out),
        "--tolerance", "1e-30",
    )
    assert res.returncode == 4
    assert "crosscheck failed" in res.stderr
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["pass"] is False
    assert payload["tolerance"] == 1e-30


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-12"])
def test_crosscheck_refuses_a_tolerance_that_is_not_finite_and_nonnegative(
    configs, tmp_path, tolerance
):
    out = tmp_path / "cc"
    res = run_cli(
        "crosscheck", "--config", configs["cross"], "--out", str(out),
        f"--tolerance={tolerance}",
    )
    assert res.returncode == 2
    assert "--tolerance must be finite and nonnegative" in res.stderr
    assert "crosscheck ok" not in res.stdout
    assert not out.exists()


def test_crosscheck_tied_cut_model_uses_product_route(configs, tmp_path):
    out = tmp_path / "cc"
    res = run_cli("crosscheck", "--config", configs["tied_sc"], "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "crosscheck.json").read_text())
    assert payload["routes"] == ["semigroup", "single_crossover"]
    assert payload["generic_rates"] is False
    assert payload["pass"] is True


def test_crosscheck_tied_general_model_has_one_route(configs, tmp_path):
    res = run_cli("crosscheck", "--config", configs["tied_general"], "--out", str(tmp_path))
    assert res.returncode == 3
    assert "two independent routes" in res.stderr


# ---------------------------------------------------------------------------
# failure modes and plumbing
# ---------------------------------------------------------------------------


def test_mode_lock_mismatch(configs, tmp_path):
    res = run_cli("coefficients", "--config", configs["modelocked"], "--out", str(tmp_path))
    assert res.returncode == 2
    assert "config.run.mode" in res.stderr


def test_seed_required_unless_overridden(configs, tmp_path):
    res = run_cli("simulate-moran", "--config", configs["moran_noseed"], "--out", str(tmp_path))
    assert res.returncode == 2
    assert "pass --seed" in res.stderr
    res = run_cli(
        "simulate-moran", "--config", configs["moran_noseed"], "--out", str(tmp_path),
        "--seed", "5",
    )
    assert res.returncode == 0, res.stderr


def test_config_error_paths(configs, tmp_path):
    res = run_cli("coefficients", "--config", configs["badjson"], "--out", str(tmp_path))
    assert res.returncode == 2 and "not valid JSON" in res.stderr
    res = run_cli("coefficients", "--config", configs["unknown"], "--out", str(tmp_path))
    assert res.returncode == 2 and "unknown field" in res.stderr
    res = run_cli("coefficients", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert res.returncode == 2 and "cannot read" in res.stderr


def test_linked_sites_warning(configs, tmp_path):
    res = run_cli("coefficients", "--config", configs["linked"], "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "never separated" in res.stderr
    assert "sites 2 and 3" in res.stderr


def test_jobs_validation(configs, tmp_path):
    res = run_cli(
        "simulate-moran", "--config", configs["moran"], "--out", str(tmp_path),
        "--jobs", "0",
    )
    assert res.returncode == 2
    assert "--jobs" in res.stderr


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("warp-drive", "--config", "x").returncode == 2
    assert run_cli("coefficients").returncode == 2  # --config is required


def test_verbose_logging_flag(configs, tmp_path):
    res = run_cli(
        "crosscheck", "--config", configs["tied_sc"], "--out", str(tmp_path),
        env_extra={"RECOMB_LOG": "INFO"},
    )
    assert res.returncode == 0
    assert "recursion route skipped" in res.stderr
