"""Benchmark of qrollout: synthesis, emulation and the classical reference.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth|verify|estimate --seed N \\
        --seconds S --trace 0|1

The workload runs in this process as a closed loop: one client runs the
workload's fixed job list back to back, single-threaded, with BLAS/OpenMP
pinned to one thread.  Passes over the job list repeat until ``--seconds``
have elapsed (at least one pass; a pass that has started always finishes).
Every job's output is checked against an independent reference.

``--trace 0`` reports the end-to-end metrics: the job list's wall time (the
sum over jobs of each job's median time across passes), the median set-up
time over several set-ups, and peak resident memory.  Both times are scaled
to a reference CPU speed with a fixed calibration kernel that does not use
``qrollout``: it is timed before each job of an untraced pass, and the job's
time is multiplied by ``CALIBRATION_REF_S`` over that kernel time; each
set-up is scaled the same way by the kernel timed right after it, in the
same process.  On a shared host the speed of the CPU
drifts by a third from one minute to the next; the kernel slows with it,
the program's own changes do not move it.  The unscaled times are printed
and kept in the results file.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times, work counts and rates from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, and the full record (manifest, job times,
set-up samples, failures, spans) is written to ``perfbench/results/``.  The exit code is 0
when every check passed, 1 when one failed, and 2 when there is nothing to
run.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

from spans import Recorder, descendants, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is timed once in this process and again in fresh interpreters,
# because import time can only be measured once per process
SETUP_SAMPLES = 7
SETUP_CALIBRATIONS = 5        # calibration kernels timed after each set-up
RUN_SECONDS = 30
# scaled times are seconds on a CPU on which calibrate() takes this long;
# about its median on the shared 2-core x86-64 virtual machine the benchmark
# was written on (Python 3.11.7, numpy 2.4.6)
CALIBRATION_REF_S = 0.009

WORKLOAD_WHY = {
    "synth": "rank-select and oracle synthesis in tally and record mode plus circuit "
             "cost/serialise/analysis: builder and circuit layers only, no emulation",
    "verify": "emulator and branchwise checks: wide oracles on 200-400 rows and narrow "
              "circuits on 2^14-2^20 rows, so a kernel that helps one shape and hurts "
              "the other shows",
    "estimate": "classical sampler, exact DP, separation report and influence MC: "
                "no builder or emulator work, the bypass for those changes",
}

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.24),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

LAYER_SPANS = (
    "rank_select.build", "oracle.compose_tally", "oracle.compose_record",
    "circuit.cost", "circuit.dumps", "circuit.loads", "circuit.analysis",
    "oracle.branchwise_check", "emulator.check_ancilla_clean",
    "emulator.check_bijective", "emulator.payoff_probability",
    "domains.sample_payoff", "domains.exact_value", "domains.arm_means",
    "bestarm.separation_report", "bounds.empirical_influence",
)
COUNTS = {
    "rank_select.gates": "lower",
    "oracle.compose_tally.gates": "lower",
    "oracle.compose_record.gates": "lower",
    "oracle.branchwise_check.branches": "higher",
    "emulator.gate_rows": "higher",
    "domains.rollouts": "higher",
    "domains.exact_value.calls": "higher",
    "bestarm.trials": "higher",
    "bounds.coupled_rollouts": "higher",
}
# rate name -> (unit, count key, spans whose self time it is over, unit scale)
RATES = {
    "rank_select.kgates_per_s": ("kgates/s", "rank_select.gates",
                                 ("rank_select.build",), 1e3),
    "oracle.compose_tally.kgates_per_s": ("kgates/s", "oracle.compose_tally.gates",
                                          ("oracle.compose_tally",), 1e3),
    "oracle.compose_record.kgates_per_s": ("kgates/s", "oracle.compose_record.gates",
                                           ("oracle.compose_record",), 1e3),
    "circuit.kgates_per_s": ("kgates/s", "circuit.gates",
                             ("circuit.cost", "circuit.dumps", "circuit.loads",
                              "circuit.analysis"), 1e3),
    "oracle.branchwise_check.mgate_rows_per_s": (
        "Mgate-rows/s", "oracle.branchwise_check.gate_rows",
        ("oracle.branchwise_check",), 1e6),
    "emulator.mgate_rows_per_s": ("Mgate-rows/s", "emulator.gate_rows",
                                  ("emulator.check_ancilla_clean",
                                   "emulator.check_bijective",
                                   "emulator.payoff_probability"), 1e6),
    "domains.rollouts_per_s": ("rollouts/s", "domains.rollouts",
                               ("domains.sample_payoff",), 1.0),
    "bestarm.trials_per_s": ("trials/s", "bestarm.trials",
                             ("bestarm.separation_report",), 1.0),
    "bounds.coupled_rollouts_per_s": ("rollouts/s", "bounds.coupled_rollouts",
                                      ("bounds.empirical_influence",), 1.0),
}
BENCH_METRICS = {
    "bench.checks": ("count", "higher"),
    "bench.checks_failed": ("count", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {f"{name}.s": ("s", "lower") for name in LAYER_SPANS}
    out.update({name: ("count", better) for name, better in COUNTS.items()})
    out.update({name: (unit, "higher") for name, (unit, *_) in RATES.items()})
    out.update(BENCH_METRICS)
    return out


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in per_layer_units().items()],
    }


class Harness:
    """What jobs see: a span recorder and a correctness-check counter."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.attempted = 0
        self.failures: list[str] = []

    def span(self, name: str):
        return self.rec.span(name)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


_CAL_ARRAYS = None


def calibrate() -> float:
    """Time a fixed kernel that does not use qrollout: interpreter work on a
    small dict, then numpy arithmetic and a gather over 2 MiB arrays, about
    as the program's layers mix them.  It allocates no arrays and runs with
    the garbage collector off, so what the program left in memory does not
    change its time.  Returns its wall time in seconds."""
    global _CAL_ARRAYS
    import numpy
    if _CAL_ARRAYS is None:
        _CAL_ARRAYS = tuple(numpy.arange(1 << 18, dtype=numpy.int64)
                            for _ in range(3))
    x, y, z = _CAL_ARRAYS
    gc_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d = {}
        for i in range(30000):
            d[i & 511] = d.get(i & 511, 0) + (i * 7) % 13
        numpy.copyto(y, x)
        for _ in range(8):
            numpy.multiply(y, 3, out=y)
            numpy.add(y, 1, out=y)
            numpy.bitwise_and(y, (1 << 18) - 1, out=y)
        numpy.take(x, y, out=z)
        return time.perf_counter() - t0
    finally:
        if gc_on:
            gc.enable()


def run_pass(jobs, h: Harness, cal: dict[str, float] | None = None
             ) -> dict[str, float]:
    """Run the job list once and return each job's wall time.  A raised
    exception counts as a failed check.  With ``cal``, the calibration
    kernel is timed before each job, outside the job's time, and ``cal``
    maps the job's name to that time."""
    times = {}
    with h.rec.span("bench.pass"):
        for name, job in jobs:
            if cal is not None:
                cal[name] = calibrate()
            h.rec.job = name
            t0 = time.perf_counter()
            with h.rec.span("bench.job"):
                try:
                    job(h)
                except Exception:
                    h.check(False, f"{name}: raised\n{traceback.format_exc()}")
            times[name] = time.perf_counter() - t0
        h.rec.job = None
    return times


def job_list_wall(passes: list[dict[str, float]]) -> float:
    """Wall time of the job list: the sum over jobs of each job's median
    time across passes, so a slow spell in one pass moves only the jobs it
    hit."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def scaled_job_list_wall(passes: list[dict[str, float]],
                         cals: list[dict[str, float]]) -> float:
    """``job_list_wall`` with each job's time in each pass scaled to the
    reference speed by the calibration kernel timed right before it."""
    return sum(statistics.median(p[name] * CALIBRATION_REF_S / c[name]
                                 for p, c in zip(passes, cals))
               for name in passes[0])


def timed_setup(workload: str, seed: int, smoke: bool):
    """Import the program, build the workload's instances and run one
    untimed smoke-size warm-up pass.  Returns (seconds, workload, warm-up
    harness)."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    cls = workloads.WORKLOADS[workload]
    wl = cls(seed, smoke=smoke)
    warm = Harness(Recorder(False))
    run_pass(cls(seed, smoke=True).jobs(), warm)
    return time.perf_counter() - t0, wl, warm


def setup_sample(workload: str, seed: int, smoke: bool):
    """One timed set-up, then the median of a few calibration kernels run
    right after it.  Returns (set-up seconds, calibration seconds, workload,
    warm-up harness)."""
    secs, wl, warm = timed_setup(workload, seed, smoke)
    cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    return secs, cal, wl, warm


_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
          "print(*run.setup_sample(sys.argv[2], int(sys.argv[3]), "
          "sys.argv[4] == '1')[:2])")


def probe_setup(workload: str, seed: int, smoke: bool) -> tuple[float, float]:
    """Set-up and calibration time in a fresh interpreter, so that imports
    are timed too."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(BENCH), workload, str(seed),
         "1" if smoke else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    secs, cal = out.stdout.split()[-2:]
    return float(secs), float(cal)


def layer_metrics(spans, root: int) -> dict[str, float]:
    """Per-layer self times, counts and rates of one traced pass."""
    tree = descendants(spans, root)
    own = self_times(tree)
    secs = defaultdict(float)
    counts = defaultdict(int)
    for sp in tree:
        secs[sp.name] += own[sp.id]
        for key, n in sp.counts.items():
            counts[key] += n
    out = {f"{name}.s": secs[name] for name in LAYER_SPANS}
    out.update({name: counts[name] for name in COUNTS})
    for name, (_, key, over, scale) in RATES.items():
        t = sum(secs[s] for s in over)
        out[name] = counts[key] / t / scale if t > 0 else 0.0
    out["bench.harness.s"] = secs["bench.pass"] + secs["bench.job"]
    out["bench.pass.s"] = tree[0].end - tree[0].start
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def manifest(workload: str, seed: int, seeded: bool, seconds: float,
             trace: bool, smoke: bool) -> dict:
    import numpy
    import qrollout
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": seeded,
        "seed_note": ("the seed feeds the branch lists, MC, sampler, separation "
                      "and influence seeds" if seeded else
                      f"{workload} draws no random inputs: it is seed-independent"),
        "qrollout_version": qrollout.__version__,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loop": "closed, one client, job list back to back, single-threaded",
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Set up, run passes for ``seconds``, and reduce them to metrics."""
    setup_s, setup_cal, wl, warm = setup_sample(workload, seed, smoke)
    setups = [(setup_s, setup_cal)]
    if not trace:
        setups += [probe_setup(workload, seed, smoke)
                   for _ in range(SETUP_SAMPLES - 1)]
    h = warm                 # its recorder is off; checks keep counting
    jobs = wl.jobs()
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    cals = []
    n = 0
    start = time.perf_counter()
    while n < len(kinds) or time.perf_counter() - start < seconds:
        traced = kinds[n % len(kinds)]
        h.rec.enabled = traced
        cal = None if traced else {}
        passes[traced].append(run_pass(jobs, h, cal))
        if cal is not None:
            cals.append(cal)
        n += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        spans = h.rec.spans
        per_pass = [layer_metrics(spans, sp.id) for sp in spans
                    if sp.name == "bench.pass"]
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["bench.trace_overhead_s"] = (job_list_wall(passes[True])
                                             - job_list_wall(passes[False]))
    else:
        spans = []
        metrics = {"wall_s": scaled_job_list_wall(passes[False], cals),
                   "setup_s": statistics.median(secs * CALIBRATION_REF_S / c
                                                for secs, c in setups),
                   "peak_rss_mb": peak_rss_mb,
                   "wall_unscaled_s": job_list_wall(passes[False]),
                   "setup_unscaled_s": statistics.median(s for s, _ in setups),
                   "calibration_s": statistics.median(
                       t for c in cals for t in c.values())}
    metrics["bench.checks"] = h.attempted
    metrics["bench.checks_failed"] = len(h.failures)
    metrics["fail_ratio"] = len(h.failures) / h.attempted
    return {
        "manifest": manifest(workload, seed, wl.seeded, seconds, trace, smoke),
        "metrics": metrics,
        "job_walls_s": passes[False],
        "traced_job_walls_s": passes[True],
        "setup_samples_s": [secs for secs, _ in setups],
        "setup_calibration_s": [c for _, c in setups],
        "calibration_samples_s": cals,
        "failures": h.failures,
        "spans": [asdict(sp) for sp in spans],
    }


def result_line(result: dict) -> dict:
    """The contract's last line: the end-to-end or the per-layer metrics."""
    m = result["metrics"]
    units = (per_layer_units() if result["manifest"]["trace"]
             else {name: (unit, better)
                   for name, (unit, better, _) in END_TO_END.items()})
    failed = len(result["failures"])
    return {"correct": failed == 0, "attempted": m["bench.checks"],
            "failed": failed,
            "metrics": {name: {"value": m[name], "unit": unit}
                        for name, (unit, _) in units.items()}}


def report(result: dict) -> None:
    man = result["manifest"]
    print("manifest " + json.dumps(man, sort_keys=True))
    for what in result["failures"]:
        print(f"FAILED {what}", file=sys.stderr)
    units = {name: unit for name, (unit, *_) in END_TO_END.items()}
    units.update({name: unit for name, (unit, _) in per_layer_units().items()})
    units.update({"fail_ratio": "1", "bench.harness.s": "s", "bench.pass.s": "s",
                  "wall_unscaled_s": "s", "setup_unscaled_s": "s",
                  "calibration_s": "s"})
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{man['workload']}-seed{man['seed']}"
                      f"-trace{int(man['trace'])}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result_line(result)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None, smoke: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "qrollout" / "__init__.py").is_file():
        print(f"perfbench: no qrollout sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 smoke)
    report(result)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
