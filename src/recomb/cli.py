"""Command line front end.

Subcommands map one-to-one onto the library entry points; every run is
driven by a JSON config plus an optional seed override, writes its
results atomically into --out, and signals failure classes through the
exit code:

    0   success
    2   configuration problem (bad JSON, unknown field, missing input)
    3   numerical or domain precondition failed (tied decay rates,
        lattice too large, mass drift, wrong method for the model)
    4   crosscheck deviation above tolerance
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .ancestral import EXACT_METHODS, CoefficientVector
from .config import MODES, ModelConfig
from .dynamics import (
    Trajectory,
    exact_coefficients,
    integrate_grid,
    iterate_discrete,
    mixture_from_coefficients,
)
from .errors import (
    ConfigError,
    CrosscheckError,
    NonGenericRatesError,
    RecombError,
)
from .measure import TypeSpace
from .moran import PopulationState, arg_replicates, lln_report, simulate_moran_grid
from .partitions import count_label_rows

log = logging.getLogger("recomb")

_CSV_COLUMN_CAP = 65536


def _setup_logging() -> None:
    level_name = os.environ.get("RECOMB_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# -- output ------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(x) -> str:
    """Floats keep full precision through repr; ints stay ints."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _type_label(space: TypeSpace, flat: int) -> str:
    return "-".join(str(d) for d in space.decode(flat))


def _emit(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    _write_atomic(path, text)
    print(f"wrote {path}")
    return path


def _write_trajectory(out_dir: str, fmt: str, traj: Trajectory) -> None:
    space = traj.states[0].space
    if fmt == "csv":
        if space.cardinality > _CSV_COLUMN_CAP:
            raise ConfigError(
                f"{space.cardinality} type columns exceed the CSV cap "
                f"({_CSV_COLUMN_CAP}); use --format json"
            )
        header = ["t"] + [_type_label(space, k) for k in range(space.cardinality)]
        rows = [
            [_fmt(t)] + [_fmt(v) for v in w.to_array()]
            for t, w in zip(traj.times, traj.states)
        ]
        _emit(out_dir, "trajectory.csv", _csv_text(header, rows))
    else:
        payload = {
            "times": list(traj.times),
            "states": [
                {_type_label(space, space.encode(ty)): v for ty, v in w.items()}
                for w in traj.states
            ],
        }
        _emit(out_dir, "trajectory.json", _json_text(payload))


def _write_coefficients(out_dir: str, fmt: str, t: float, coeffs: CoefficientVector) -> None:
    if fmt == "csv":
        rows = [[a.to_text(), _fmt(v)] for a, v in coeffs.items()]
        _emit(out_dir, "coefficients.csv", _csv_text(["partition", "a_t"], rows))
    else:
        payload = {"t": t, "coefficients": {a.to_text(): v for a, v in coeffs.items()}}
        _emit(out_dir, "coefficients.json", _json_text(payload))


# -- shared plumbing ---------------------------------------------------------


def _resolve_seed(cfg: ModelConfig, args) -> int:
    if args.seed is not None:
        return args.seed
    if cfg.run.seed is not None:
        return cfg.run.seed
    raise ConfigError("config.run.seed: required for this mode (or pass --seed)")


def _chunks(total: int, jobs: int):
    jobs = max(1, min(jobs, total))
    base, extra = divmod(total, jobs)
    lo = 0
    for i in range(jobs):
        count = base + (1 if i < extra else 0)
        yield lo, count
        lo += count


def _run_chunked(fn, total: int, jobs: int):
    """Split a replicate batch into chunks and run them in order.

    Replicate r always draws from the same stream keyed by (seed, r), so
    the split is invisible in the output.
    """
    return [fn(lo, count) for lo, count in _chunks(total, jobs)]


# -- subcommand handlers -----------------------------------------------------


def _cmd_solve_ode(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("space", "initial", "dt", "times")
    times = cfg.times()
    grid = times if times and times[0] == 0.0 else [0.0] + times
    traj = integrate_grid(cfg.rates, cfg.initial, grid, cfg.run.dt)
    _write_trajectory(out_dir, fmt, traj)


def _cmd_solve_exact(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("space", "initial", "times")
    method = cfg.run.method or "semigroup"
    times = cfg.times()
    states = [
        mixture_from_coefficients(coeffs, cfg.initial)
        for coeffs in exact_coefficients(cfg.rates, times, method)
    ]
    _write_trajectory(out_dir, fmt, Trajectory([0.0] + times, [cfg.initial] + states)
                      if not times or times[0] > 0.0
                      else Trajectory(times, states))


def _cmd_solve_discrete(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("space", "initial", "t")
    traj = iterate_discrete(cfg.rates, cfg.initial, cfg.run.t)
    _write_trajectory(out_dir, fmt, traj)


def _cmd_coefficients(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("t")
    method = args.method or cfg.run.method or "semigroup"
    [coeffs] = exact_coefficients(cfg.rates, [cfg.run.t], method)
    _write_coefficients(out_dir, fmt, cfg.run.t, coeffs)


def _cmd_simulate_moran(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("space", "initial", "times", "n_individuals")
    seed = _resolve_seed(cfg, args)
    replicates = cfg.run.replicates or 1
    times = cfg.times()
    z0 = PopulationState.from_distribution(
        cfg.initial, cfg.run.n_individuals, mode="round"
    )
    space = z0.space

    def run(lo: int, count: int) -> np.ndarray:
        return simulate_moran_grid(cfg.rates, z0, times, seed, count, first_replicate=lo)

    counts = np.concatenate(_run_chunked(run, replicates, args.jobs), axis=0)
    if fmt == "csv":
        rows = []
        for r in range(replicates):
            for ti, t in enumerate(times):
                vec = counts[r, ti]
                for k in np.flatnonzero(vec):
                    rows.append([r, _fmt(t), _type_label(space, int(k)), int(vec[k])])
        _emit(out_dir, "moran.csv", _csv_text(["replicate", "t", "type", "count"], rows))
    else:
        payload = [
            {
                "replicate": r,
                "t": times[ti],
                "counts": {
                    _type_label(space, int(k)): int(counts[r, ti, k])
                    for k in np.flatnonzero(counts[r, ti])
                },
            }
            for r in range(replicates)
            for ti in range(len(times))
        ]
        _emit(out_dir, "moran.json", _json_text(payload))


def _cmd_simulate_arg(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("t", "n_individuals")
    seed = _resolve_seed(cfg, args)
    replicates = cfg.run.replicates or 1
    d, N = cfg.rates, cfg.run.n_individuals

    def run(lo: int, count: int):
        return arg_replicates(d, N, cfg.run.t, seed, count, first_replicate=lo)

    pieces = _run_chunked(run, replicates, args.jobs)
    rows = np.concatenate([p[0] for p in pieces], axis=0)
    ancestors = np.concatenate([p[1] for p in pieces], axis=0)
    distinct, inverse, _ = count_label_rows(rows, d.ground)
    texts = [p.to_text() for p in distinct]
    partitions = [texts[i] for i in inverse]
    if fmt == "csv":
        out_rows = [[r, partitions[r], int(ancestors[r])] for r in range(replicates)]
        _emit(
            out_dir,
            "arg.csv",
            _csv_text(["replicate", "partition", "ancestors"], out_rows),
        )
    else:
        payload = [
            {
                "replicate": r,
                "partition": partitions[r],
                "ancestors": int(ancestors[r]),
            }
            for r in range(replicates)
        ]
        _emit(out_dir, "arg.json", _json_text(payload))


def _cmd_lln_report(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("space", "initial", "t", "population_sizes", "replicates")
    seed = _resolve_seed(cfg, args)
    report = lln_report(
        cfg.rates,
        cfg.initial,
        cfg.run.t,
        cfg.run.population_sizes,
        cfg.run.replicates,
        seed,
    )
    rows = [
        [n, _fmt(m), _fmt(s)]
        for n, m, s in zip(report.population_sizes, report.mean_tv, report.sd_tv)
    ]
    if fmt == "csv":
        _emit(out_dir, "lln.csv", _csv_text(["n_individuals", "mean_tv", "sd_tv"], rows))
    else:
        _emit(out_dir, "lln.json", _json_text(report.to_dict()))
    _emit(out_dir, "report.json", _json_text(report.to_dict()))


def _cmd_crosscheck(cfg: ModelConfig, args, out_dir: str, fmt: str) -> None:
    cfg.require("times")
    d = cfg.rates
    tolerance = args.tolerance if args.tolerance is not None else 1e-10
    times = cfg.times()
    vectors = {}
    try:
        vectors["recursion"] = exact_coefficients(d, times, "recursion")
    except NonGenericRatesError as exc:
        log.info("recursion route skipped: %s", exc)
    if d.is_single_crossover():
        vectors["single_crossover"] = exact_coefficients(d, times, "single_crossover")
    if not vectors:
        raise NonGenericRatesError(
            "crosscheck needs two independent routes, but the decay rates are "
            "tied (no recursion) and the model is not single-crossover"
        )
    vectors["semigroup"] = exact_coefficients(d, times, "semigroup")
    routes = [m for m in EXACT_METHODS if m in vectors]
    pair_max: dict[str, float] = {}
    for i, m1 in enumerate(routes):
        for m2 in routes[i + 1:]:
            pair_max[f"{m1}~{m2}"] = max(
                float(np.max(np.abs(v1.values - v2.values)))
                for v1, v2 in zip(vectors[m1], vectors[m2])
            )
    overall = max(pair_max.values())
    payload = {
        "times": times,
        "routes": routes,
        "generic_rates": "recursion" in vectors,
        "pairwise_max_deviation": pair_max,
        "max_deviation": overall,
        "tolerance": tolerance,
        "pass": overall <= tolerance,
    }
    _emit(out_dir, "crosscheck.json", _json_text(payload))
    if not payload["pass"]:
        raise CrosscheckError(
            f"routes disagree by {overall:.3e} > tolerance {tolerance:.3e} "
            f"(pairs: {pair_max})"
        )
    print(f"crosscheck ok: {len(routes)} routes within {overall:.3e}")


_HANDLERS = {
    "solve-ode": _cmd_solve_ode,
    "solve-exact": _cmd_solve_exact,
    "solve-discrete": _cmd_solve_discrete,
    "coefficients": _cmd_coefficients,
    "simulate-moran": _cmd_simulate_moran,
    "simulate-arg": _cmd_simulate_arg,
    "lln-report": _cmd_lln_report,
    "crosscheck": _cmd_crosscheck,
}


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON model config")
    common.add_argument("--seed", type=int, default=None, help="overrides config.run.seed")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="output format (default: config output.format, then csv)",
    )
    common.add_argument(
        "--jobs", type=int, default=1,
        help="chunks per replicate batch, run in order; output is byte-identical "
        "for any value (default 1)",
    )
    common.add_argument(
        "--tolerance", type=float, default=None,
        help="crosscheck tolerance (default 1e-10)",
    )
    parser = argparse.ArgumentParser(
        prog="recomb",
        description="deterministic recombination dynamics and finite-population simulators",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    descriptions = {
        "solve-ode": "integrate the nonlinear dynamics with fixed-step RK4",
        "solve-exact": "evaluate the closed-form solution at given times",
        "solve-discrete": "iterate the discrete-generation map",
        "coefficients": "partition coefficients of the exact solution",
        "simulate-moran": "finite-population forward simulation",
        "simulate-arg": "backward ancestry partitioning simulation",
        "lln-report": "empirical convergence of frequencies to the flow",
        "crosscheck": "compare independent exact routes against each other",
    }
    for name in MODES:
        sp = sub.add_parser(name, parents=[common], help=descriptions[name])
        if name == "coefficients":
            sp.add_argument(
                "--method", choices=EXACT_METHODS, default=None,
                help="exact route (default: config run.method, then semigroup)",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing leaves it as it is, and no
    option has a mutable default."""
    return _build_parser()


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        cfg = ModelConfig.load(args.config)
        if cfg.run.mode is not None and cfg.run.mode != args.command:
            raise ConfigError(
                f"config.run.mode is {cfg.run.mode!r} but the subcommand is "
                f"{args.command!r}"
            )
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.tolerance is not None and not 0 <= args.tolerance < np.inf:
            raise ConfigError(
                f"--tolerance must be finite and nonnegative, got {args.tolerance}"
            )
        for a, b in cfg.rates.unseparated_adjacent_pairs():
            log.warning(
                "sites %d and %d are never separated by any rate; they move "
                "as one linked unit", a, b,
            )
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        fmt = args.format or cfg.output_format or "csv"
        _HANDLERS[args.command](cfg, args, out_dir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CrosscheckError as exc:
        print(f"crosscheck failed: {exc}", file=sys.stderr)
        return 4
    except RecombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
