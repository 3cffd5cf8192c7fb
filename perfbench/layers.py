"""Per-layer metrics of the traced run.

`install` wraps the public functions of each recomb module (and the
methods the hot paths call) with spans; `metrics` turns the spans of the
traced cycles into per-cycle layer metrics.  Counts marked "computed" are
derived by the benchmark from the model, the arguments or the result
(e.g. Poisson terms from lambda*t and the uniformization rule), not read
from the program.

Metric names of the ``recomb._kernels`` layer start with ``kernels.``,
because a metric name must start with a letter or a digit.

`SPEC` gives each layer metric its unit, its better direction, whether it
is computed, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math

import numpy as np

from recomb import bell_number
from spans import Tracer, self_times
from workloads import reachable_states

# Uniformization rule of recomb.ancestral._expm_action.
POISSON_TAIL = 1e-15
MAX_LAMBDA_T = 500.0

MC_KERNELS = ("partition_batch", "arg_batch", "reconstruct_batch", "moran_batch",
              "moran_tv_batch")


def poisson_terms(q: np.ndarray, t: float) -> int:
    """Vector-matrix products one uniformized e^{tQ} action takes."""
    lam = float(-q.diagonal().min())
    if lam <= 0.0 or lam * t == 0.0:
        return 0
    chunks = max(1, int(math.ceil(lam * t / MAX_LAMBDA_T)))
    lt = lam * t / chunks
    weight = math.exp(-lt)
    cum = weight
    k = 0
    while cum < 1.0 - POISSON_TAIL:
        k += 1
        weight *= lt / k
        cum += weight
        if k > 100 * lt + 1000:
            break
    return chunks * k


def _generator(args, q):
    v = q.values
    return {"model": args["d"], "nnz": int(np.count_nonzero(v)), "bytes": v.nbytes,
            "entries": v.size}


def _marginal_key(args, result):
    w = args["self"]
    return {"key": (w.space.alphabet_sizes, hash(w.to_array().tobytes()),
                    tuple(sorted(set(args["sites"]))))}


def _reps(result):
    return {"reps": int(len(result[0] if isinstance(result, tuple) else result))}


def _moran_events(args, result):
    n = int(np.sum(args["init_counts"]))
    t = float(np.asarray(args["t_grid"], float)[-1])
    return {"reps": len(result), "events": n * float(args["mu"]) * t * len(result)}


def _moran_tv_events(args, result):
    events = int(args["N"]) * float(args["mu"]) * float(args["t_end"]) * len(result)
    return {"reps": len(result), "events": events}


def install(tracer: Tracer) -> None:
    import recomb
    from recomb import _kernels, ancestral, cli, dynamics, moran
    from recomb.config import ModelConfig

    fn = tracer.wrap_function
    method = tracer.wrap_method
    method("partitions.index", recomb.PartitionIndex, "__init__",
           lambda a, r: {"states": len(a["self"].partitions)})
    method("rates.block_split_rates", recomb.RecombinationDistribution, "block_split_rates")
    fn("ancestral.build_generator", ancestral, "build_generator", _generator)
    fn("ancestral.coefficients_semigroup", ancestral, "coefficients_semigroup",
       lambda a, r: {"terms": poisson_terms(a["q"].values, float(a["t"]))})
    fn("ancestral.psi_theta", ancestral, "compute_psi_theta", lambda a, r: {"model": a["d"]})
    fn("ancestral.coefficients_recursion", ancestral, "coefficients_recursion")
    fn("ancestral.coefficients_single_crossover", ancestral, "coefficients_single_crossover")
    fn("ancestral.partition_frequencies", ancestral, "partition_frequencies")
    method("measure.product_over_blocks", recomb.TypeDistribution, "product_over_blocks")
    method("measure.marginal", recomb.TypeDistribution, "marginal", _marginal_key)
    fn("dynamics.solve_exact", dynamics, "solve_exact")
    fn("dynamics.mixture_from_coefficients", dynamics, "mixture_from_coefficients",
       lambda a, r: {"terms": int(np.count_nonzero(a["coefficients"].values))})
    fn("dynamics.integrate_grid", dynamics, "integrate_grid")
    for name in ("lln_report", "arg_replicates", "reconstruct_replicates"):
        fn(f"moran.{name}", moran, name)
    for name in ("stream_uniforms", "partition_batch", "arg_batch", "reconstruct_batch"):
        fn(f"kernels.{name}", _kernels, name, lambda a, r: _reps(r))
    fn("kernels.moran_batch", _kernels, "moran_batch", _moran_events)
    fn("kernels.moran_tv_batch", _kernels, "moran_tv_batch", _moran_tv_events)
    fn("kernels.rhs_dense", _kernels, "rhs_dense")
    fn("cli.main", cli, "main")
    method("config.load", ModelConfig, "load")


def model_key(d) -> tuple:
    return (d.ground, d.mu, tuple(sorted((a.to_text(), r) for a, r in d.entries.items())))


# name -> (unit, "higher"/"lower", computed?, moves)
EXACT = "exact-lattice"
MC = "mc-refinement"
MORAN = "moran-forward"
SPEC: dict[str, tuple[str, str, bool, str]] = {
    "ancestral.build_generator.busy_s": ("s", "lower", False,
                                         f"throughput_per_s, job_tail_s, peak_rss_mib ({EXACT})"),
    "ancestral.generator_nnz": ("count", "lower", True,
                                f"throughput_per_s, job_tail_s, peak_rss_mib ({EXACT})"),
    "ancestral.generator_bytes": ("bytes", "lower", True,
                                  f"throughput_per_s, job_tail_s, peak_rss_mib ({EXACT})"),
    "ancestral.generator_density": ("share", "higher", True,
                                    f"throughput_per_s, job_tail_s, peak_rss_mib ({EXACT})"),
    "ancestral.coefficients_semigroup.busy_s": ("s", "lower", False,
                                                f"throughput_per_s, job_tail_s ({EXACT})"),
    "ancestral.poisson_terms": ("count", "lower", True, f"throughput_per_s, job_tail_s ({EXACT})"),
    "ancestral.psi_theta.busy_s": ("s", "lower", False, f"throughput_per_s ({EXACT})"),
    "ancestral.reachable_states": ("count", "lower", True, f"throughput_per_s ({EXACT})"),
    "ancestral.reachable_fraction": ("share", "higher", True, f"throughput_per_s ({EXACT})"),
    "ancestral.coefficients_recursion.busy_s": ("s", "lower", False,
                                                f"throughput_per_s ({EXACT})"),
    "ancestral.coefficients_single_crossover.busy_s": ("s", "lower", False,
                                                       f"throughput_per_s ({EXACT})"),
    "ancestral.builds_per_model": ("count", "lower", False, f"wall_s ({EXACT})"),
    "ancestral.partition_frequencies.busy_s": ("s", "lower", False, f"throughput_per_s ({MC})"),
    "partitions.index_s": ("s", "lower", False, f"throughput_per_s ({EXACT})"),
    "partitions.lattice_states": ("count", "lower", True, f"throughput_per_s ({EXACT})"),
    "rates.block_split_rates.calls": ("count", "lower", False, f"throughput_per_s ({EXACT})"),
    "rates.block_split_rates.busy_s": ("s", "lower", False, f"throughput_per_s ({EXACT})"),
    "measure.product_over_blocks.calls": ("count", "lower", False,
                                          f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "measure.product_over_blocks.busy_s": ("s", "lower", False,
                                           f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "measure.marginal.calls": ("count", "lower", False, f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "measure.marginal.unique_ratio": ("share", "higher", False,
                                      f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "dynamics.mixture_from_coefficients.busy_s": ("s", "lower", False,
                                                  f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "dynamics.mixture_terms": ("count", "lower", True, f"job_p50_s ({EXACT}, solve-exact jobs)"),
    "dynamics.integrate_grid.busy_s": ("s", "lower", False, f"job_p50_s ({EXACT}, solve-ode job)"),
    "dynamics.rhs_evals": ("count", "lower", False, f"job_p50_s ({EXACT}, solve-ode job)"),
}
for _k in ("partition_batch", "arg_batch", "reconstruct_batch"):
    for _m, _u, _b in (("calls", "count", "lower"), ("busy_s", "s", "lower"),
                       ("reps", "count", "higher"), ("reps_per_s", "1/s", "higher")):
        SPEC[f"kernels.{_k}.{_m}"] = (_u, _b, False, f"throughput_per_s ({MC})")
for _k in ("moran_batch", "moran_tv_batch"):
    for _m, _u, _b in (("calls", "count", "lower"), ("busy_s", "s", "lower"),
                       ("reps", "count", "higher"), ("reps_per_s", "1/s", "higher")):
        SPEC[f"kernels.{_k}.{_m}"] = (_u, _b, False, f"throughput_per_s, wall_s ({MORAN})")
SPEC.update({
    "kernels.moran.expected_events": ("count", "higher", True,
                                       f"throughput_per_s, wall_s ({MORAN})"),
    "kernels.moran.events_per_s": ("1/s", "higher", True, f"throughput_per_s, wall_s ({MORAN})"),
    "kernels.rhs_dense.calls": ("count", "lower", False, f"job_p50_s ({EXACT}, solve-ode job)"),
    "kernels.rhs_dense.busy_s": ("s", "lower", False, f"job_p50_s ({EXACT}, solve-ode job)"),
    "kernels.stream_uniforms.calls": ("count", "lower", False, f"throughput_per_s ({MC})"),
    "kernels.stream_uniforms.busy_s": ("s", "lower", False, f"throughput_per_s ({MC})"),
    "moran.lln_report.busy_s": ("s", "lower", False, f"throughput_per_s ({MORAN})"),
    "moran.arg_replicates.busy_s": ("s", "lower", False, f"throughput_per_s ({MC})"),
    "moran.reconstruct_replicates.busy_s": ("s", "lower", False, f"throughput_per_s ({MC})"),
    "cli.self_s": ("s", "lower", False, f"wall_s ({MORAN}, {MC})"),
    "cli.output_bytes": ("bytes", "lower", False, f"wall_s ({MORAN}, {MC})"),
    "cli.jobs_speedup": ("ratio", "higher", False, f"wall_s ({MORAN}); 0 where no --jobs pair"),
    "config.load_s": ("s", "lower", False, "setup_s (all workloads)"),
    "fail_rate": ("share", "lower", False, "failed / attempted jobs (all workloads)"),
    "trace.wall_s": ("s", "lower", False, "traced cycle time; compare trace.untraced_wall_s"),
    "trace.untraced_wall_s": ("s", "lower", False, "the same cycles run untraced"),
    "trace.overhead_ratio": ("ratio", "lower", False, "trace.wall_s / trace.untraced_wall_s"),
})


def metrics(spans, cycles: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-cycle layer metrics from the spans of `cycles` traced cycles."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.t1 - s.t0 for s in by_name.get(name, ())) / cycles

    def calls(name):
        return len(by_name.get(name, ())) / cycles

    def total(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()) if s.info) / cycles

    out: dict[str, float] = {}
    gens = by_name.get("ancestral.build_generator", [])
    out["ancestral.build_generator.busy_s"] = busy("ancestral.build_generator")
    out["ancestral.generator_nnz"] = total("ancestral.build_generator", "nnz")
    out["ancestral.generator_bytes"] = total("ancestral.build_generator", "bytes")
    entries = total("ancestral.build_generator", "entries")
    out["ancestral.generator_density"] = out["ancestral.generator_nnz"] / entries if entries else 0.0
    out["ancestral.coefficients_semigroup.busy_s"] = busy("ancestral.coefficients_semigroup")
    semi = calls("ancestral.coefficients_semigroup")
    out["ancestral.poisson_terms"] = (
        total("ancestral.coefficients_semigroup", "terms") / semi if semi else 0.0)
    out["ancestral.psi_theta.busy_s"] = busy("ancestral.psi_theta")
    builds = gens + by_name.get("ancestral.psi_theta", [])
    models = {}  # (cycle, model) -> model: a model solved again next cycle is new work
    for s in builds:
        cycle = s.job.split(":", 1)[0]
        models.setdefault((cycle, model_key(s.info["model"])), s.info["model"])
    reach = sum(reachable_states(d) for d in models.values())
    lattice = sum(bell_number(d.n_sites) for d in models.values())
    out["ancestral.reachable_states"] = reach / cycles
    out["ancestral.reachable_fraction"] = reach / lattice if lattice else 0.0
    out["ancestral.coefficients_recursion.busy_s"] = busy("ancestral.coefficients_recursion")
    out["ancestral.coefficients_single_crossover.busy_s"] = busy(
        "ancestral.coefficients_single_crossover")
    out["ancestral.builds_per_model"] = len(builds) / len(models) if models else 0.0
    out["ancestral.partition_frequencies.busy_s"] = busy("ancestral.partition_frequencies")
    out["partitions.index_s"] = busy("partitions.index")
    out["partitions.lattice_states"] = total("partitions.index", "states")
    for m in ("calls", "busy_s"):
        f = calls if m == "calls" else busy
        out[f"rates.block_split_rates.{m}"] = f("rates.block_split_rates")
        out[f"measure.product_over_blocks.{m}"] = f("measure.product_over_blocks")
    out["measure.marginal.calls"] = calls("measure.marginal")
    marg = by_name.get("measure.marginal", [])
    unique = {(s.job.split(":", 1)[0], s.info["key"]) for s in marg}  # per cycle
    out["measure.marginal.unique_ratio"] = len(unique) / len(marg) if marg else 0.0
    out["dynamics.mixture_from_coefficients.busy_s"] = busy("dynamics.mixture_from_coefficients")
    out["dynamics.mixture_terms"] = total("dynamics.mixture_from_coefficients", "terms")
    out["dynamics.integrate_grid.busy_s"] = busy("dynamics.integrate_grid")
    out["dynamics.rhs_evals"] = _under(spans, "kernels.rhs_dense", "dynamics.integrate_grid") / cycles
    for k in MC_KERNELS:
        name = f"kernels.{k}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.reps"] = total(name, "reps")
        b = out[f"{name}.busy_s"]
        out[f"{name}.reps_per_s"] = out[f"{name}.reps"] / b if b else 0.0
    events = total("kernels.moran_batch", "events") + total("kernels.moran_tv_batch", "events")
    moran_busy = out["kernels.moran_batch.busy_s"] + out["kernels.moran_tv_batch.busy_s"]
    out["kernels.moran.expected_events"] = events
    out["kernels.moran.events_per_s"] = events / moran_busy if moran_busy else 0.0
    for k in ("rhs_dense", "stream_uniforms"):
        out[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        out[f"kernels.{k}.busy_s"] = busy(f"kernels.{k}")
    for k in ("lln_report", "arg_replicates", "reconstruct_replicates"):
        out[f"moran.{k}.busy_s"] = busy(f"moran.{k}")
    own = self_times(spans)
    out["cli.self_s"] = sum(own[s.sid] for s in by_name.get("cli.main", ())) / cycles
    out.update(extra)
    missing = set(SPEC) - set(out)
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return out


def _under(spans, name: str, ancestor: str) -> int:
    parent = {s.sid: s.parent for s in spans}
    names = {s.sid: s.name for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and names.get(p) != ancestor:
            p = parent.get(p)
        count += p is not None
    return count
