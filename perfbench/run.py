"""Benchmark for the netpass pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in a fresh worker process (``worker.py``) with one caller
and one BLAS thread, pinned to one core next to a speed probe
(``speed.py``), so its peak memory is its own and its times can be rescaled
to the core's full speed.  With ``--trace 0`` the result carries the
end-to-end metrics: the median time of whole passes over the workload's
scenarios, the median set-up time of several fresh processes, and the
worker's peak resident memory.  With ``--trace 1`` the worker runs one
untraced pass and one traced pass, and the result carries the per-layer
metrics.  The last stdout line is the result; the line before it records
versions, raw times, input and output hashes and every check.  See NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

from speed import SpeedClock, read_samples  # noqa: E402
from tracer import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "dense", "optimize", "export")
BLAS_THREADS = 1
SETUP_RUNS = 5  # fresh processes whose set-up times give the median setup_s
DEADLINE_S = 175.0


def _fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Probe:
    """The speed probe process, pinned (by inheritance) to the benchmark's core."""

    def __init__(self, path):
        self.path = path
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(self.path)], env=_env())
        deadline = time.monotonic() + 30.0
        while not (self.path.exists() and self.path.stat().st_size):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                _fail("the speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def clock(self):
        return SpeedClock(read_samples(self.path))


def _run_worker(args, work, role, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work / role)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        _fail("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        _fail(f"{args.workload} worker did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    if not Path(".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("max_mismatch", "residual_max", "t_end")):
        return "1"
    return "count"


def run_workload(args):
    """Measure one workload; return (record, result) as printed."""
    deadline = time.monotonic() + DEADLINE_S
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})  # workers and the probe inherit it
    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Probe(work / "probe.txt") as probe:
            setups = [] if args.trace else [
                _run_worker(args, work, f"setup{k}", deadline, setup_only=True)
                ["setup"] for k in range(SETUP_RUNS - 1)]
            main = _run_worker(args, work, "main", deadline)
        clock = probe.clock()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    setups.append(main["setup"])

    def pass_time(calls):
        return sum(clock.elapsed(start, end) for start, end in calls)

    pass_times = [pass_time(calls) for calls in main["passes"]]
    problems = list(main["problems"])
    if args.trace:
        values = layer_metrics(main["setup_spans"], main["pass_spans"],
                               clock.elapsed)
        untraced, traced = pass_times
        values["trace.overhead_s"] = traced - untraced
        values["sim.stationarity_residual_max"] = main["endpoint_residual_max"]
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        allowed = abs(traced - untraced) + 1e-3 + 1e-3 * untraced
        if abs(self_sum - untraced) > allowed:
            problems.append(f"layer self times sum to {self_sum:.6f} s, the "
                            f"untraced pass took {untraced:.6f} s")
    else:
        values = {
            "wall_s": statistics.median(pass_times),
            "setup_s": statistics.median(clock.elapsed(*s) for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    record = dict(main["record"])
    record.update({
        "trace": args.trace,
        "seconds": args.seconds,
        "pass_times_s": pass_times,
        "raw_pass_times_s": [sum(b - a for a, b in calls)
                             for calls in main["passes"]],
        "raw_setup_times_s": [b - a for a, b in setups],
        "speed": clock.summary(),
        "fail_share": main["failed"] / main["attempted"],
        "problems": problems,
        "blas_threads": BLAS_THREADS,
        "core": core,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    })
    result = {
        "correct": not problems,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in sorted(values.items())},
    }
    return record, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        _fail("--seed must be >= 0 and --seconds >= 1")
    if not Path("src/netpass/__init__.py").is_file():
        _fail("run from the root of a netpass checkout (no src/netpass here)")

    if args.workload != "all":
        record, result = run_workload(args)
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
        return

    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": name,
                                        "trace": trace})
            record, result = run_workload(one)
            entry = summary.setdefault(name, {
                "correct": True, "fail_share": record["fail_share"],
                "attempted": result["attempted"], "failed": result["failed"]})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            for metric, m in result["metrics"].items():
                print(f"{name:9s} {metric:34s} {m['value']:14.6g} {m['unit']}")
            if not trace:
                print(f"{name:9s} {'fail_share':34s} {record['fail_share']:14.6g}"
                      f" ({result['failed']}/{result['attempted']})")
            sys.stdout.flush()
    print(json.dumps(summary, sort_keys=True))


if __name__ == "__main__":
    main()
