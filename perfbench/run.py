#!/usr/bin/env python3
"""Benchmark of the recomb package: three workloads, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # tiny sizes, checks the metric set
    python3 perfbench/run.py --compare A.log B.log

One client submits the jobs of a cycle in sequence, each after the last
one returns, and repeats cycles until --seconds have passed (the last
cycle always completes).  Every job's output is checked after the
measured phase.  With --trace 0 the last line of standard output is the
end-to-end result; with --trace 1 the run first repeats the untraced
loop for half the time, then runs the same cycles again with spans around
the public functions of every recomb module, and reports per-layer
metrics, per cycle, with the tracing overhead.

The BLAS and OpenMP thread variables are set to 1 here, before numpy
loads, so every commit is measured with the same threading.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9
SMOKE_TIMEOUT_S = 170

E2E_NOTES = {
    "setup_s": "median of {reps} set-ups: import, config generation and loading, warm-up",
    "wall_s": "median time of one cycle of jobs, {cycles} cycles",
    "job_p50_s": "median job latency, {jobs} jobs",
    "job_tail_s": "{tail} job latency, {jobs} jobs",
    "throughput_per_s": "validated {unit} per second ({units} in {busy:.3f} s)",
    "peak_rss_mib": "peak resident memory of the process",
}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "throughput_per_s": "1/s", "peak_rss_mib": "MiB"}


@dataclass
class Record:
    name: str
    cycle: int
    work: int
    latency: float
    result: object
    error: str | None
    verify: object
    ok: bool = False


def fresh_import():
    """Import the benchmark's workloads, and with them recomb, afresh."""
    for name in list(sys.modules):
        if name in ("recomb", "workloads", "layers") or name.startswith("recomb."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import recomb

    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_active": bool(getattr(recomb, "NUMBA_ACTIVE", False)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_cycles(wl, where: Path, *, seconds: float | None = None, cycles: int | None = None,
               tracer=None) -> tuple[list[Record], list[float]]:
    """Closed loop over whole cycles: until `seconds` pass, or `cycles` times."""
    records: list[Record] = []
    times: list[float] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        jobs = wl.jobs(cycle, where / f"cycle-{cycle}")
        c0 = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = f"{cycle}:{job.name}"
            t0 = time.perf_counter()
            try:
                result, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(job.name, cycle, job.work, time.perf_counter() - t0,
                                  result, error, job.verify))
        times.append(time.perf_counter() - c0)
        cycle += 1
        if cycles is not None and cycle >= cycles:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, times


def verify(records: list[Record]) -> list[str]:
    problems = []
    for r in records:
        if r.error is None:
            try:
                r.verify(r.result)
                r.ok = True
            except Exception as exc:
                r.error = f"{type(exc).__name__}: {exc}"
        if not r.ok:
            problems.append(f"cycle {r.cycle} {r.name}: {r.error}")
    return problems


def check_probes(wl_mod, names) -> list[str]:
    recorded = wl_mod.recorded_digests()
    probes = wl_mod.probe_outputs()
    return [f"probe {n}: digest differs from digests.json"
            for n in names if probes[n]() != recorded[n]]


def output_bytes(records: list[Record], wl_mod) -> int:
    total = 0
    for r in records:
        if isinstance(r.result, wl_mod.CliResult) and r.result.out.is_dir():
            total += sum(p.stat().st_size for p in r.result.out.iterdir() if p.is_file())
    return total


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten jobs beyond it; the maximum below 20 jobs."""
    n = len(latencies)
    if n < 20:
        return max(latencies), "maximum"
    pct = math.floor(100 * (1 - 10 / n))
    return sorted(latencies)[math.ceil(pct / 100 * n) - 1], f"p{pct}"


def jobs_speedup(records: list[Record]) -> float:
    """Median over cycles of --jobs 1 time / --jobs 2 time; 0 without a pair."""
    one = {r.cycle: r.latency for r in records if r.name == "simulate-moran-jobs1"}
    two = {r.cycle: r.latency for r in records if r.name == "simulate-moran-jobs2"}
    ratios = [one[c] / two[c] for c in one if c in two]
    return statistics.median(ratios) if ratios else 0.0


def inputs_digest(where: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(where.glob("*.json")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def set_up(args, workdir: Path):
    """SETUP_REPS fresh set-ups; returns the last one and the timings."""
    setups, loads = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl_mod = fresh_import()
        wl = wl_mod.WORKLOADS[args.workload](args.seed, args.size, workdir)
        loads.append(wl.setup())
        setups.append(time.perf_counter() - t0)
    return wl_mod, wl, setups, loads


def end_to_end(records, cycle_times, setups, wl) -> dict[str, float]:
    latencies = [r.latency for r in records]
    tail_s, tail_label = tail(latencies)
    busy = sum(cycle_times)
    units = sum(r.work for r in records if r.ok)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(cycle_times),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "throughput_per_s": units / busy,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"reps": SETUP_REPS, "cycles": len(cycle_times), "jobs": len(records),
             "tail": tail_label, "unit": wl.unit, "units": units, "busy": busy}
    for k, v in values.items():
        print(f"  {k:<18} {v:>12.6g} {E2E_UNITS[k]:<4} {E2E_NOTES[k].format(**notes)}")
    return values


def per_layer(layers, tracer, plain, plain_times, traced, traced_times, extra) -> dict[str, float]:
    extra = dict(extra, **{
        "cli.jobs_speedup": jobs_speedup(plain),
        "trace.wall_s": statistics.median(traced_times),
        "trace.untraced_wall_s": statistics.median(plain_times),
    })
    extra["trace.overhead_ratio"] = extra["trace.wall_s"] / extra["trace.untraced_wall_s"]
    values = layers.metrics(tracer.spans, len(traced_times), extra)
    print(f"per-layer metrics, per cycle, over {len(traced_times)} traced cycles "
          f"(spans: {len(tracer.spans)})")
    for k, (unit, _, computed, moves) in layers.SPEC.items():
        tag = " computed" if computed else ""
        print(f"  {k:<48} {values[k]:>14.6g} {unit:<6}{tag:<9} -> {moves}")
    return values


def measure(args, workdir: Path) -> int:
    wl_mod, wl, setups, loads = set_up(args, workdir)
    import recomb

    if Path(recomb.__file__).resolve().parent != (SRC / "recomb").resolve():
        print(f"error: recomb imported from {recomb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(f"# recomb benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    wl.prepare()

    if args.trace:
        import layers
        from spans import Tracer

        plain, plain_times = run_cycles(wl, workdir / "untraced", seconds=args.seconds / 2)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced, traced_times = run_cycles(wl, workdir / "traced", cycles=len(plain_times),
                                              tracer=tracer)
        finally:
            tracer.uninstall()
        records = plain + traced
    else:
        records, cycle_times = run_cycles(wl, workdir / "measured", seconds=args.seconds)
    problems = verify(records) + check_probes(wl_mod, wl.probes)
    failed = sum(not r.ok for r in records)
    attempted = len(records)

    if args.trace:
        units = {k: v[0] for k, v in layers.SPEC.items()}
        values = per_layer(layers, tracer, plain, plain_times, traced, traced_times, {
            "cli.output_bytes": output_bytes(traced, wl_mod) / len(traced_times),
            "config.load_s": statistics.median(loads),
            "fail_rate": failed / attempted,
        })
    else:
        units = E2E_UNITS
        values = end_to_end(records, cycle_times, setups, wl)
        print(f"  {'fail_rate':<18} {failed / attempted:>12.6g} {'':<4} "
              f"{failed} of {attempted} jobs failed")
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs_digest(workdir / "setup"), "env": env,
        "attempted": attempted, "failed": failed, "metrics": values,
    }, sort_keys=True))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run(args) -> int:
    if not (SRC / "recomb" / "__init__.py").is_file():
        print(f"error: no recomb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """Tiny runs of every workload: results correct, metric set as declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        inputs = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed",
                 str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S, cwd=ROOT)
            label = f"{w['name']} seed={seed} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].removeprefix("record "))
            inputs[seed] = record["inputs"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: incorrect output: {proc.stderr.strip()[-500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(declared[trace]))} "
                                "differ from BENCHMARK.json")
            for name, unit in got.items():
                if not any(name in line and unit in line for line in lines[:-2]):
                    problems.append(f"{label}: {name} is not printed with its unit")
            print(f"ok {label}: {len(got)} metrics")
        if inputs.get(1) == inputs.get(2):
            problems.append(f"{w['name']}: seeds 1 and 2 generated the same inputs")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    return 1 if problems else 0


def compare(paths: list[str]) -> int:
    """Median of each metric in two saved outputs; refuses mixed kernel builds."""
    sides = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sides.append([json.loads(line[len("record "):]) for line in fh
                          if line.startswith("record ")])
    flags = {r["env"]["numba_active"] for side in sides for r in side}
    if len(flags) != 1:
        print("refusing to compare: runs differ in numba_active", file=sys.stderr)
        return 2
    keys = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    for workload, trace in keys:
        groups = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                  for side in sides]
        print(f"{workload} trace={trace} runs={[len(g) for g in groups]}")
        names = sorted({k for g in groups for r in g for k in r["metrics"]})
        for name in names:
            meds = [statistics.median([r["metrics"][name] for r in g if name in r["metrics"]])
                    if g else float("nan") for g in groups]
            print(f"  {name:<48} {meds[0]:>14.6g} {meds[1]:>14.6g}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="exact-lattice")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny size and check the metric set")
    p.add_argument("--compare", nargs=2, metavar="LOG",
                   help="compare the record lines of two saved outputs")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.compare:
        return compare(args.compare)
    if args.workload not in ("exact-lattice", "mc-refinement", "moran-forward"):
        p.error(f"unknown workload {args.workload!r}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
