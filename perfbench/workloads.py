"""The three workloads of the recomb benchmark.

Each workload turns the run seed into model configs, yields one cycle of
jobs at a time, and checks every job's output after the measured phase.
A job is one call into the package from outside: ``recomb.cli.main`` on
a generated config, or a public library function.

* ``exact-lattice`` - exact routes on the partition lattice.  New models
  every cycle (rates drawn from the seed and the cycle number), so no
  result can be reused from an earlier cycle.
* ``mc-refinement`` - many short Monte Carlo replicates of the refinement
  process (partitioning sampler, backward ARG, reconstruction).  Models
  are fixed for the run; every job draws a fresh stream seed.
* ``moran-forward`` - few long forward Moran replicates at N = 10^4, run
  with ``--jobs 1`` and ``--jobs 2`` on one config, plus ``lln-report``.

Checks: exact routes agree pairwise to 1e-10 and ``crosscheck`` exits 0;
other exact outputs are compared with an independent route; sampled
frequencies must lie within a 4-standard-error budget of the exact law
(summed absolute deviation at most 4 times the summed standard errors,
and no sample on an outcome of probability zero); Monte Carlo replicates
are checked bitwise against replicates recomputed alone through another
entry point, and the probe batches against the digests recorded in
``digests.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from recomb import (
    Partition,
    PartitionIndex,
    PopulationState,
    RecombinationDistribution,
    TypeDistribution,
    TypeSpace,
    _kernels,
    ancestry_reconstruct,
    arg_replicates,
    bell_number,
    build_generator,
    cli,
    coefficients_semigroup,
    coefficients_single_crossover,
    lln_report,
    mixture_from_coefficients,
    partition_frequencies,
    partitioning_history,
    reconstruct_replicates,
    simulate_arg,
    simulate_moran_grid,
    stream_uniforms,
    two_block_partitions,
)
from recomb.config import ModelConfig

HERE = Path(__file__).resolve().parent
EXACT_TOL = 1e-10
ODE_TOL = 1e-6


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    work: int  # validated (model, t) solves, or replicates
    run: Callable[[], object]
    verify: Callable[[object], None]


@dataclass
class CliResult:
    code: int
    out: Path


# -- inputs ------------------------------------------------------------------


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def stream_seed(*key: int) -> int:
    return int(rng_for(*key).integers(1, 2**62))


def _split(rng, k: int, total: float) -> np.ndarray:
    """k random positive rates summing to `total` (cost follows the total)."""
    w = rng.uniform(0.1, 1.0, k)
    return w * (total / w.sum())


def general_model(rng, n: int, total: float) -> RecombinationDistribution:
    """Rate-style model with a random rate on every two-block split."""
    ground = tuple(range(1, n + 1))
    splits = two_block_partitions(ground)
    return RecombinationDistribution.from_rates(
        ground, {a: float(r) for a, r in zip(splits, _split(rng, len(splits), total))}
    )


def crossover_model(rng, n: int, total: float) -> RecombinationDistribution:
    """Single-crossover model: one random rate per cut point."""
    return RecombinationDistribution.single_crossover(_split(rng, n - 1, total))


def moran_model(rng, n: int) -> RecombinationDistribution:
    """Probability-style model, mu = 1, 60 % of events recombine."""
    ground = tuple(range(1, n + 1))
    splits = two_block_partitions(ground)
    probs = rng.dirichlet(np.ones(len(splits))) * 0.6
    return RecombinationDistribution.from_probabilities(
        ground, 1.0, {a: float(p) for a, p in zip(splits, probs)}
    )


def initial_entries(rng, sizes: list[int]) -> list[tuple[tuple, float]]:
    """Two linked halves: four fixed types with random masses in twentieths.

    The types are fixed so that the samplers' linear scans over type
    indices cost the same for every seed; masses in twentieths make
    round(N * mass) exact for N divisible by 20.
    """
    n, half = len(sizes), len(sizes) // 2
    low, high = [0] * n, [k - 1 for k in sizes]
    types = [tuple(low), tuple(high), tuple(low[:half] + high[half:]),
             tuple(high[:half] + low[half:])]
    units = rng.multinomial(20 - len(types), np.full(len(types), 1.0 / len(types))) + 1
    return [(t, int(u) / 20) for t, u in zip(types, units)]


def write_config(path: Path, d: RecombinationDistribution, run: dict,
                 sizes: list[int] | None = None, initial=None) -> Path:
    cfg = {"recombination": d.to_config(), "run": run}
    if sizes is not None:
        cfg["space"] = {"alphabet_sizes": sizes}
        cfg["initial"] = {
            "kind": "explicit",
            "entries": [{"type": list(t), "mass": m} for t, m in initial],
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return path


def cli_job(name: str, work: int, argv: list[str], out: Path,
            verify: Callable[[CliResult], None]) -> Job:
    def run() -> CliResult:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", str(out)])
        return CliResult(code, out)

    return Job(name, work, run, verify)


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def decode_label(label: str) -> tuple[int, ...]:
    return tuple(int(x) for x in label.split("-"))


# -- checks ------------------------------------------------------------------


def check_budget(counts: dict, probs: dict, total: int, what: str) -> None:
    """Sampled frequencies within a 4-standard-error budget of `probs`."""
    require(sum(counts.values()) == total, f"{what}: {sum(counts.values())} samples, expected {total}")
    for key, c in counts.items():
        require(probs.get(key, 0.0) > 0.0 or c == 0,
                f"{what}: {c} samples on {key}, which has probability 0")
    dev = budget = 0.0
    for key in set(counts) | set(probs):
        p = max(probs.get(key, 0.0), 0.0)
        dev += abs(counts.get(key, 0) / total - p)
        budget += math.sqrt(p * (1.0 - p) / total)
    require(dev <= 4.0 * budget,
            f"{what}: summed deviation {dev:.4g} exceeds 4 standard errors ({4 * budget:.4g})")


def coefficient_law(coeffs) -> dict:
    return {a: v for a, v in coeffs.items() if v != 0.0}


def check_exit(res: CliResult, what: str) -> None:
    require(res.code == 0, f"{what}: exit code {res.code}")


def check_crosscheck(res: CliResult, n_routes: int) -> None:
    check_exit(res, "crosscheck")
    report = read_json(res.out / "crosscheck.json")
    require(report["pass"] is True, "crosscheck: report does not pass")
    require(len(report["routes"]) == n_routes,
            f"crosscheck: routes {report['routes']}, expected {n_routes}")
    for pair, gap in report["pairwise_max_deviation"].items():
        require(gap <= EXACT_TOL, f"crosscheck: {pair} differ by {gap:.3e}")


def trajectory_states(res: CliResult, space: TypeSpace) -> tuple[list[float], list[np.ndarray]]:
    payload = read_json(res.out / "trajectory.json")
    states = []
    for state in payload["states"]:
        arr = np.zeros(space.cardinality)
        for label, v in state.items():
            arr[space.encode(decode_label(label))] = v
        states.append(arr)
    return payload["times"], states


def exact_state(d, w0: TypeDistribution, t: float, closed_form: bool) -> np.ndarray:
    if closed_form:
        coeffs = coefficients_single_crossover(d, t)
    else:
        coeffs = coefficients_semigroup(build_generator(d, PartitionIndex(d.ground)), t)
    return mixture_from_coefficients(coeffs, w0).to_array()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs, jobs and checks of one workload; `size` is "full" or "tiny"."""

    name = ""
    unit = ""  # what one unit of `Job.work` is
    probes: tuple[str, ...] = ()
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.sz = self.SIZES[size]
        self.workdir = workdir

    def configs(self, cycle: int, where: Path) -> dict[str, Path]:
        """Write the configs of one cycle; name -> path."""
        raise NotImplementedError

    def jobs(self, cycle: int, where: Path) -> list[Job]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill lazy state: kernel warm-up and one tiny CLI call."""
        _kernels.warmup()
        d = RecombinationDistribution.from_rates((1, 2), {Partition.from_text("1|2"): 1.0})
        where = self.workdir / "warmup"
        path = write_config(where / "warmup.json", d, {"t": 1.0})
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["coefficients", "--config", str(path), "--out", str(where)])
        require(code == 0, f"warm-up CLI call exited {code}")

    def setup(self) -> float:
        """Generate and load the first cycle's configs, then warm up.

        Returns the time spent in ModelConfig.load.
        """
        load = 0.0
        for path in self.configs(0, self.workdir / "setup").values():
            t0 = time.perf_counter()
            ModelConfig.load(str(path))
            load += time.perf_counter() - t0
        self.warm_up()
        return load

    def prepare(self) -> None:
        """Reference results the checks need (untimed, before tracing)."""


class ExactLattice(Workload):
    name = "exact-lattice"
    unit = "solves"
    # Per cycle: three light jobs, two crosschecks and two jobs at the
    # 4140-state cap, so the median latency falls inside the crosscheck
    # group and the tail inside the at-cap group for any cycle count > 5.
    SIZES = {
        "full": {"cc_general": 5, "cc_crossover": 6, "coef_general": 6, "cap": 8,
                 "small": 5, "alphabet": 3, "dt": 0.005},
        "tiny": {"cc_general": 4, "cc_crossover": 4, "coef_general": 4, "cap": 5,
                 "small": 3, "alphabet": 2, "dt": 0.01},
    }
    TIMES = [0.1, 1.0, 10.0]

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cap_sizes = [2] * self.sz["cap"]
        self.small_sizes = [self.sz["alphabet"]] * self.sz["small"]

    def models(self, cycle: int) -> dict:
        """Total rates are fixed so cost does not follow the draw; lambda*t
        stays below 11 on the 4140-state lattice."""
        rng = rng_for(self.seed, cycle, 1)
        sz = self.sz
        m = {
            "cc_general": general_model(rng, sz["cc_general"], 8.0),
            "cc_crossover": crossover_model(rng, sz["cc_crossover"], 3.0),
            "coef_general": general_model(rng, sz["coef_general"], 3.5),
            "coef_crossover": crossover_model(rng, sz["cap"], 4.0),
            "exact_crossover": crossover_model(rng, sz["cap"], 4.0),
            "recursion": general_model(rng, sz["small"], 1.6),
            "ode": general_model(rng, sz["small"], 1.6),
        }
        m["exact_crossover_initial"] = initial_entries(rng, self.cap_sizes)
        m["recursion_initial"] = initial_entries(rng, self.small_sizes)
        m["ode_initial"] = initial_entries(rng, self.small_sizes)
        return m

    def configs(self, cycle, where):
        return self._write(self.models(cycle), where)

    def _write(self, m: dict, where: Path) -> dict[str, Path]:
        def cfg(key, run, sizes=None):
            initial = m[f"{key}_initial"] if sizes else None
            return write_config(where / f"{key}.json", m[key], run, sizes, initial)

        crosscheck = {"mode": "crosscheck", "t_grid": self.TIMES}
        coefficients = {"mode": "coefficients", "t": 1.0}
        return {
            "cc_general": cfg("cc_general", crosscheck),
            "cc_crossover": cfg("cc_crossover", crosscheck),
            "coef_general": cfg("coef_general", coefficients),
            "coef_crossover": cfg("coef_crossover", coefficients),
            "exact_crossover": cfg("exact_crossover", {"mode": "solve-exact", "t_grid": [1.0]},
                                   self.cap_sizes),
            "recursion": cfg("recursion", {"mode": "solve-exact", "t_grid": [1.0],
                                           "method": "recursion"}, self.small_sizes),
            "ode": cfg("ode", {"mode": "solve-ode", "t_grid": [0.0, 0.5, 1.0],
                               "dt": self.sz["dt"]}, self.small_sizes),
        }

    def jobs(self, cycle, where):
        m = self.models(cycle)
        paths = self._write(m, where)

        def job(name, work, cmd, key, verify, *extra):
            argv = [cmd, "--config", str(paths[key]), "--format", "json", *extra]
            return cli_job(name, work, argv, where / f"out-{key}", verify)

        def verify_coefficients(key: str):
            def verify(res: CliResult) -> None:
                check_exit(res, key)
                d = m[key]
                payload = read_json(res.out / "coefficients.json")
                t = payload["t"]
                coeffs = {Partition.from_text(k): v for k, v in payload["coefficients"].items()}
                require(len(coeffs) == bell_number(d.n_sites), f"{key}: wrong lattice size")
                require(min(coeffs.values()) >= -1e-15, f"{key}: negative weight")
                require(abs(sum(coeffs.values()) - 1.0) <= 1e-12, f"{key}: mass is not 1")
                if d.is_single_crossover():
                    ref = dict(coefficients_single_crossover(d, t).items())
                    gap = max(abs(coeffs[a] - v) for a, v in ref.items())
                    require(gap <= EXACT_TOL, f"{key}: closed form differs by {gap:.3e}")
                    return
                top = math.exp(-d.split_rate(d.ground) * t)
                gap = abs(coeffs[Partition.one_block(d.ground)] - top)
                require(gap <= EXACT_TOL, f"{key}: one-block weight off by {gap:.3e}")
                # The refinement process restricted to sites 1..n-1 is the
                # refinement process of the marginal model on those sites.
                sub = d.ground[:-1]
                marginal = RecombinationDistribution.from_rates(sub, d.block_split_rates(sub))
                ref = coefficients_semigroup(build_generator(marginal, PartitionIndex(sub)), t)
                restricted: dict[Partition, float] = {}
                for a, v in coeffs.items():
                    r = a.restrict(sub)
                    restricted[r] = restricted.get(r, 0.0) + v
                gap = max(abs(restricted.get(a, 0.0) - v) for a, v in ref.items())
                require(gap <= EXACT_TOL, f"{key}: marginal on {sub} off by {gap:.3e}")
            return verify

        def verify_trajectory(key: str, sizes: list[int], closed_form: bool, tol: float):
            def verify(res: CliResult) -> None:
                check_exit(res, key)
                space = TypeSpace(sizes)
                w0 = TypeDistribution.from_pairs(space, m[f"{key}_initial"])
                times, states = trajectory_states(res, space)
                require(times[0] == 0.0 and len(times) >= 2, f"{key}: bad time grid {times}")
                for t, state in zip(times[1:], states[1:]):
                    gap = float(np.max(np.abs(state - exact_state(m[key], w0, t, closed_form))))
                    require(gap <= tol, f"{key}: state at t={t} off by {gap:.3e}")
            return verify

        return [
            job("crosscheck-general", 3, "crosscheck", "cc_general",
                lambda r: check_crosscheck(r, 2)),
            job("crosscheck-crossover", 3, "crosscheck", "cc_crossover",
                lambda r: check_crosscheck(r, 3)),
            job("coefficients-general", 1, "coefficients", "coef_general",
                verify_coefficients("coef_general"), "--method", "semigroup"),
            job("coefficients-crossover", 1, "coefficients", "coef_crossover",
                verify_coefficients("coef_crossover"), "--method", "semigroup"),
            job("solve-exact-crossover", 1, "solve-exact", "exact_crossover",
                verify_trajectory("exact_crossover", self.cap_sizes, True, EXACT_TOL)),
            job("solve-exact-recursion", 1, "solve-exact", "recursion",
                verify_trajectory("recursion", self.small_sizes, False, EXACT_TOL)),
            job("solve-ode", 2, "solve-ode", "ode",
                verify_trajectory("ode", self.small_sizes, False, ODE_TOL)),
        ]


def reachable_states(d: RecombinationDistribution) -> int:
    """Partitions reachable from the one-block state by supported splits.

    Breadth-first over sorted tuples of block bitmasks; independent of the
    package's lattice code.
    """
    pos = {s: i for i, s in enumerate(d.ground)}
    masks = [sum(1 << pos[s] for s in a.blocks[0]) for a in d.entries]
    full = (1 << d.n_sites) - 1
    start = (full,)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            for i, block in enumerate(state):
                for m in masks:
                    p1, p2 = block & m, block & ~m & full
                    if p1 and p2:
                        child = tuple(sorted(state[:i] + state[i + 1:] + (p1, p2)))
                        if child not in seen:
                            seen.add(child)
                            nxt.append(child)
        frontier = nxt
    return len(seen)


class McRefinement(Workload):
    name = "mc-refinement"
    unit = "replicates"
    probes = ("stream_uniforms", "partition_frequencies", "arg_replicates",
              "reconstruct_replicates")
    # Replicates per job, per model, chosen so that every job takes about
    # as long: the latency distribution then has no gaps for the median or
    # the tail to jump across.
    SIZES = {
        "full": {"crossover": 8, "general": 6, "N": 10_000,
                 "reps": {"crossover": {"partition": 2000, "arg": 900, "reconstruct": 500},
                          "general": {"partition": 1000, "arg": 800, "reconstruct": 700}}},
        "tiny": {"crossover": 4, "general": 3, "N": 200,
                 "reps": {"crossover": {"partition": 60, "arg": 40, "reconstruct": 40},
                          "general": {"partition": 60, "arg": 40, "reconstruct": 40}}},
    }
    T = 1.0

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = rng_for(seed, 0, 2)
        self.models = {
            "crossover": crossover_model(rng, self.sz["crossover"], 4.0),
            "general": general_model(rng, self.sz["general"], 3.4),
        }
        self.initial = {k: initial_entries(rng, [2] * d.n_sites)
                        for k, d in self.models.items()}
        self.laws: dict = {}  # model key -> exact coefficient vector at T

    def configs(self, cycle, where):
        return {
            key: write_config(where / f"arg_{key}.json", d,
                              {"mode": "simulate-arg", "t": self.T, "n_individuals": self.sz["N"],
                               "replicates": self.sz["reps"][key]["arg"]})
            for key, d in self.models.items()
        }

    def prepare(self):
        for key, d in self.models.items():
            if d.is_single_crossover():
                coeffs = coefficients_single_crossover(d, self.T)
            else:
                coeffs = coefficients_semigroup(build_generator(d, PartitionIndex(d.ground)),
                                                self.T)
            self.laws[key] = coeffs

    def jobs(self, cycle, where):
        paths = self.configs(cycle, where)
        out = []
        for j, key in enumerate(self.models):
            seeds = [stream_seed(self.seed, cycle, j, k) for k in range(3)]
            out += self._model_jobs(key, paths[key], where / f"out-arg-{key}", *seeds)
        return out

    def _model_jobs(self, key: str, config: Path, out: Path,
                    s_part: int, s_arg: int, s_rec: int) -> list[Job]:
        d, law, N, t = self.models[key], self.laws[key], self.sz["N"], self.T
        reps = self.sz["reps"][key]
        w0 = TypeDistribution.from_pairs(TypeSpace([2] * d.n_sites), self.initial[key])

        def run_partition():
            return partition_frequencies(d, t, reps["partition"], s_part)

        def verify_partition(counts):
            check_budget(counts, coefficient_law(law), reps["partition"],
                         f"partition_frequencies[{key}]")
            start = Partition.one_block(d.ground)
            for r in (0, reps["partition"] - 1):
                path = partitioning_history(d, start, t, s_part, replicate=r)
                final = path[-1][1] if path else start
                require(counts.get(final, 0) > 0,
                        f"partition_frequencies[{key}]: replicate {r} alone gives "
                        f"{final.to_text()}, absent from the batch")

        def verify_arg(res: CliResult):
            check_exit(res, "simulate-arg")
            with open(res.out / "arg.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            require(len(rows) == reps["arg"], f"simulate-arg[{key}]: {len(rows)} rows")
            counts: dict[Partition, int] = {}
            for row in rows:
                a = Partition.from_text(row["partition"])
                counts[a] = counts.get(a, 0) + 1
            check_budget(counts, coefficient_law(law), reps["arg"], f"simulate-arg[{key}]")
            for r in (0, reps["arg"] - 1):
                alone = simulate_arg(d, N, t, s_arg, replicate=r)
                require(Partition.from_text(rows[r]["partition"]) == alone.site_partition()
                        and int(rows[r]["ancestors"]) == alone.n_ancestors,
                        f"simulate-arg[{key}]: replicate {r} differs when run alone")

        def run_reconstruct():
            z0 = PopulationState.from_distribution(w0, N, mode="multinomial", seed=s_rec)
            return z0, reconstruct_replicates(d, z0, t, s_rec, reps["reconstruct"])

        def verify_reconstruct(result):
            z0, types = result
            probs = mixture_from_coefficients(law, z0.frequencies()).to_array()
            counts = np.bincount(types, minlength=probs.size)
            check_budget({k: int(c) for k, c in enumerate(counts) if c},
                         {k: float(p) for k, p in enumerate(probs) if p > 0.0},
                         reps["reconstruct"], f"reconstruct_replicates[{key}]")
            alone = z0.space.encode(ancestry_reconstruct(d, z0, t, s_rec))
            require(int(types[0]) == alone,
                    f"reconstruct_replicates[{key}]: replicate 0 differs when run alone")

        return [
            Job(f"partition_frequencies-{key}", reps["partition"], run_partition,
                verify_partition),
            cli_job(f"simulate-arg-{key}", reps["arg"],
                    ["simulate-arg", "--config", str(config), "--seed", str(s_arg)],
                    out, verify_arg),
            Job(f"reconstruct_replicates-{key}", reps["reconstruct"], run_reconstruct,
                verify_reconstruct),
        ]


class MoranForward(Workload):
    name = "moran-forward"
    unit = "replicates"
    probes = ("simulate_moran_grid", "lln_report")
    SIZES = {
        "full": {"n": 4, "N": 10_000, "moran": 4, "lln_sizes": [100, 1000, 10_000], "lln": 3},
        "tiny": {"n": 3, "N": 400, "moran": 2, "lln_sizes": [100, 400, 1600], "lln": 3},
    }
    TIMES = [0.25, 0.5]

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = rng_for(seed, 0, 3)
        self.model = moran_model(rng, self.sz["n"])
        self.initial = initial_entries(rng, [2] * self.sz["n"])
        self.targets: dict[float, np.ndarray] = {}

    def configs(self, cycle, where):
        sizes = [2] * self.sz["n"]
        return {
            "moran": write_config(where / "moran.json", self.model,
                                  {"mode": "simulate-moran", "t_grid": self.TIMES,
                                   "n_individuals": self.sz["N"],
                                   "replicates": self.sz["moran"]}, sizes, self.initial),
            "lln": write_config(where / "lln.json", self.model,
                                {"mode": "lln-report", "t": self.TIMES[-1],
                                 "population_sizes": self.sz["lln_sizes"],
                                 "replicates": self.sz["lln"]}, sizes, self.initial),
        }

    def prepare(self):
        space = TypeSpace([2] * self.sz["n"])
        w0 = TypeDistribution.from_pairs(space, self.initial)
        for t in self.TIMES:
            self.targets[t] = exact_state(self.model, w0, t, closed_form=False)

    def jobs(self, cycle, where):
        paths = self.configs(cycle, where)
        sz = self.sz
        seed = str(stream_seed(self.seed, cycle, 0))
        space = TypeSpace([2] * sz["n"])
        first: dict[str, bytes] = {}

        def moran_argv(jobs: int) -> list[str]:
            return ["simulate-moran", "--config", str(paths["moran"]), "--seed", seed,
                    "--format", "csv", "--jobs", str(jobs)]

        def verify_moran(res: CliResult) -> None:
            check_exit(res, "simulate-moran")
            text = (res.out / "moran.csv").read_bytes()
            if first:
                require(text == first["csv"],
                        "simulate-moran: --jobs 2 output differs from --jobs 1")
                return
            first["csv"] = text
            counts = np.zeros((sz["moran"], len(self.TIMES), space.cardinality), np.int64)
            index = {t: i for i, t in enumerate(self.TIMES)}
            for row in csv.DictReader(io.StringIO(text.decode())):
                counts[int(row["replicate"]), index[float(row["t"])],
                       space.encode(decode_label(row["type"]))] = int(row["count"])
            require(bool((counts.sum(axis=2) == sz["N"]).all()),
                    "simulate-moran: population size not conserved")
            for ti, t in enumerate(self.TIMES):
                freq = counts[:, ti, :] / sz["N"]
                dev = np.abs(freq.mean(axis=0) - self.targets[t]).sum()
                budget = 4.0 * (freq.std(axis=0, ddof=1) / math.sqrt(sz["moran"])).sum()
                require(dev <= budget, f"simulate-moran: mean frequencies at t={t} off by "
                                       f"{dev:.4g} > 4 standard errors ({budget:.4g})")

        def verify_lln(res: CliResult) -> None:
            check_exit(res, "lln-report")
            report = read_json(res.out / "report.json")
            tv = report["mean_tv"]
            require(report["population_sizes"] == sz["lln_sizes"], "lln-report: wrong sizes")
            require(all(b < a for a, b in zip(tv, tv[1:])),
                    f"lln-report: mean TV {tv} does not fall as N grows")
            require(-0.75 <= report["slope"] <= -0.25,
                    f"lln-report: slope {report['slope']:.3f} outside [-0.75, -0.25]")

        lln_argv = ["lln-report", "--config", str(paths["lln"]), "--seed", seed]
        return [
            cli_job("simulate-moran-jobs1", sz["moran"], moran_argv(1), where / "out-moran1",
                    verify_moran),
            cli_job("simulate-moran-jobs2", sz["moran"], moran_argv(2), where / "out-moran2",
                    verify_moran),
            cli_job("lln-report", sz["lln"] * len(sz["lln_sizes"]), lln_argv,
                    where / "out-lln", verify_lln),
        ]


WORKLOADS = {w.name: w for w in (ExactLattice, McRefinement, MoranForward)}


# -- probe digests -----------------------------------------------------------

PROBE_SEED = 20_200_221


def probe_outputs() -> dict[str, Callable[[], str]]:
    """Fixed small batches whose output digests are recorded in digests.json."""
    rng = rng_for(PROBE_SEED)
    d = general_model(rng, 4, 2.5)
    space = TypeSpace([2] * 4)
    w0 = TypeDistribution.from_pairs(space, initial_entries(rng, [2] * 4))
    z0 = PopulationState.from_distribution(w0, 400)
    dm = moran_model(rng, 4)

    def partitions():
        counts = partition_frequencies(d, 1.0, 500, PROBE_SEED)
        return hashlib.sha256(json.dumps(
            sorted((a.to_text(), c) for a, c in counts.items())).encode()).hexdigest()

    def lln():
        rep = lln_report(dm, w0, 1.0, [50, 200], 3, PROBE_SEED)
        return hashlib.sha256(json.dumps([rep.mean_tv, rep.sd_tv]).encode()).hexdigest()

    return {
        "stream_uniforms": lambda: digest(stream_uniforms(PROBE_SEED, 3, 1000)),
        "partition_frequencies": partitions,
        "arg_replicates": lambda: digest(*arg_replicates(d, 1000, 1.0, PROBE_SEED, 300)),
        "reconstruct_replicates": lambda: digest(
            reconstruct_replicates(d, z0, 1.0, PROBE_SEED, 300)),
        "simulate_moran_grid": lambda: digest(
            simulate_moran_grid(dm, z0, [0.5, 1.0], PROBE_SEED, replicates=2)),
        "lln_report": lln,
    }


def recorded_digests() -> dict[str, str]:
    return read_json(HERE / "digests.json")
