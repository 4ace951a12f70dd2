"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--record FILE.jsonl] [--chrome-trace FILE.json]

NAME is one of pipeline-deep, sync-average, ga-plan, or ``all`` (each
workload in turn, each in its own process). The workload runs in this single
process with BLAS pinned to one thread. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
``--trace 0`` the metrics are BENCHMARK.json's end_to_end list, with
``--trace 1`` its per_layer list. ``--record`` appends the full result
(every metric, the result hashes and the machine facts) as one JSON line.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the workloads run one process on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
UNTRACED_SHARE = 0.25  # of --seconds, spent untraced before a traced phase
MAX_SPANS = 100_000  # raw spans kept for --chrome-trace


def import_program() -> None:
    """Put the checkout's ravnest first on the path; refuse any other copy."""
    if not (SRC / "ravnest" / "__init__.py").is_file():
        raise SystemExit(f"error: no ravnest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ravnest

    if Path(ravnest.__file__).resolve().parent != (SRC / "ravnest").resolve():
        raise SystemExit(f"error: imported ravnest from {ravnest.__file__}, not {SRC}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# machine facts


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes

    import numpy as np

    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# measurement


class OpLog:
    """Timed calls of one run: durations, work done, failures."""

    def __init__(self):
        self.seconds: list[float] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, workload, state, budget_s: float, min_ops: int, tracer=None, on_op=None):
        """Timed calls until budget_s is spent; only the calls themselves are traced."""
        spent = 0.0
        done = 0
        while spent < budget_s or done < min_ops:
            index = self.attempted
            self.attempted += 1
            done += 1
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                result = workload.op(state, index)
            except Exception:  # a failing call is counted, and the run goes on
                result = None
                traceback.print_exc(file=sys.stderr)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            spent += elapsed
            if result is None:
                self.failed += 1
                continue
            self.seconds.append(elapsed)
            self.rates.append(workload.work(result) / elapsed)
            problems = workload.check(state, index, result)
            if problems:
                self.failed += 1
                print(f"check failed ({workload.name} call {index}): " + "; ".join(problems),
                      file=sys.stderr)
            if on_op is not None:
                on_op(result)


def measure(workload, seed: int, seconds: float, trace: bool, max_spans: int = 0) -> dict:
    """One run: setup repeats, timed calls, checks; returns the full result."""
    from tracer import Tracer, layer_metrics

    setup_s = []

    def time_setup(_result=None):
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
        return state

    # Set-up is timed before the calls and once more after each call, so its
    # median sees the same machine load as the calls' median.
    for _ in range(SETUP_REPEATS):
        state = time_setup()
    log = OpLog()
    log.run(workload, state, seconds * (UNTRACED_SHARE if trace else 1.0), workload.min_calls,
            on_op=time_setup)
    metrics, results, hashes = {}, {}, {}
    if log.rates:
        metrics = {
            "work_per_s": statistics.median(log.rates),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        results, hashes = workload.outcome(state)

    tracer = None
    if trace and log.rates:
        setup_tracer = Tracer()
        with setup_tracer:
            workload.setup(seed)
        tracer = Tracer(max_spans)
        untraced_op_s = statistics.median(log.seconds)
        traced = OpLog()
        ring = []  # virtual ring timings of the first traced call

        def on_traced_op(result):
            if not ring:
                ring.append(workload.ring_metrics(state, tracer.ring_windows))
            tracer.ring_windows.clear()

        traced.run(workload, state, seconds * (1.0 - UNTRACED_SHARE), 1, tracer, on_traced_op)
        log.attempted += traced.attempted
        log.failed += traced.failed
        if traced.seconds:
            metrics.update(layer_metrics(tracer, setup_tracer, len(traced.seconds)))
            results.update(ring[0])
            metrics["trace.overhead_frac"] = 1.0 - untraced_op_s / statistics.median(traced.seconds)
            metrics["trace.wall_s"] = sum(traced.seconds) / len(traced.seconds)

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,  # measured: they vary from run to run
        "results": results,  # deterministic for a seed, like the hashes
        "hashes": hashes,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# output


def units_of(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every measured metric; return the final line's object."""
    units = units_of(spec)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print(f"{result['workload']} seed={result['seed']}: {result['attempted']} calls, "
          f"{result['failed']} failed")
    values = {**result["metrics"], **result["results"]}
    for name, value in sorted(values.items()):
        print(f"  {name:34s} {value:16.6g} {units.get(name, '')}")
    for name, digest in result["hashes"].items():
        print(f"  {name:34s} {digest}")
    default = 0.0 if trace else None  # a layer that does not run reads 0 when traced
    metrics = {}
    for name in wanted:
        value = values.get(name, default)
        if value is not None:
            metrics[name] = {"value": value, "unit": units[name]}
    correct = result["attempted"] > 0 and result["failed"] == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args, spec: dict) -> int:
    from tracer import LAYERS
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    max_spans = MAX_SPANS if args.chrome_trace else 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), max_spans)
    tracer = result.pop("tracer")
    if args.chrome_trace and tracer is not None:
        pid = list(WORKLOADS).index(args.workload) + 1
        with open(args.chrome_trace, "w") as f:
            json.dump({"traceEvents": tracer.chrome_events(pid, args.workload),
                       "displayTimeUnit": "ms", "otherData": {"layers": list(LAYERS)}}, f)
    final = report(result, spec, bool(args.trace))
    if args.record:
        record = dict(result, correct=final["correct"], env=environment())
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another; merged output."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    events = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        part = f"{args.chrome_trace}.{name}.part" if args.chrome_trace else None
        if part:
            cmd += ["--chrome-trace", part]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        final = json.loads(lines[-1])
        combined["correct"] &= final["correct"]
        combined["attempted"] += final["attempted"]
        combined["failed"] += final["failed"]
        for metric, value in final["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        if part:
            with open(part) as f:
                events += json.load(f)["traceEvents"]
            os.remove(part)
    if args.chrome_trace:
        with open(args.chrome_trace, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as one JSON line")
    parser.add_argument("--chrome-trace", help="write the traced spans as Chrome Trace JSON")
    args = parser.parse_args(argv)
    if args.chrome_trace and not args.trace:
        parser.error("--chrome-trace needs --trace 1")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    spec = load_spec()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
