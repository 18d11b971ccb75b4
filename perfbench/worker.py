"""One workload in one process: set up, run whole passes, check, report.

Started by ``run.py``, pinned to one core with the BLAS thread count set in
the environment.  Records raw ``perf_counter`` intervals; ``run.py`` turns
them into metrics.  Prints one JSON object on its last stdout line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))  # not an installed netpass

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import netpass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402


class PassRunner:
    """Runs whole passes; checks the first and compares later ones byte for byte."""

    def __init__(self, workload, scenarios):
        self.workload = workload
        self.scenarios = scenarios
        self.reference = None  # output hashes of the first pass
        self.checks = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []  # benchmark-level problems: make ``correct`` false

    def run_pass(self):
        """Run every scenario once; return the (start, end) of each call."""
        calls = []
        hashes = {}
        for scenario in self.scenarios:
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.workload.run(scenario)
            except netpass.NetpassError as exc:
                calls.append((start, time.perf_counter()))
                self.failed += 1
                self.checks[scenario.name] = {"problems": [f"raised {exc!r}"]}
                continue
            calls.append((start, time.perf_counter()))
            if self.reference is None:
                check = self.workload.check(scenario, out)
                self.checks[scenario.name] = {
                    "verdict": check.verdict,
                    "residual": check.residual,
                    "problems": check.problems,
                }
            hashes[scenario.name] = self.workload.digest(scenario, out)
            if self.checks[scenario.name]["problems"]:
                self.failed += 1
            del out
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            self.problems.append("outputs differ between passes")
        return calls


def _span(calls):
    return sum(end - start for start, end in calls)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()

    if Path(netpass.__file__).resolve().parent != (ROOT / "src" / "netpass").resolve():
        sys.exit(f"netpass imported from {netpass.__file__}, not from ./src")

    workload = WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workload, args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))


def measure(workload, args):
    """Raw perf_counter intervals, counts, hashes and checks of one run."""
    tracer = Tracer()
    if args.trace:
        tracer.install()
    tracer.active = bool(args.trace)
    scenarios = workload.setup(args.seed, args.work_dir)
    tracer.active = False
    setup_spans = tracer.take()
    workload.warm_up(args.work_dir)
    setup = (_T0, time.perf_counter())
    if args.setup_only:
        return {"setup": setup}

    runner = PassRunner(workload, scenarios)
    passes = [runner.run_pass()]
    # Later passes can only raise the peak, by how much depends on the
    # allocator, and how many passes fit depends on the host's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.active = True
        passes.append(runner.run_pass())
        tracer.active = False
    else:
        # Start another pass only while it is expected to end in time.
        while sum(map(_span, passes)) + _span(passes[-1]) <= args.seconds:
            passes.append(runner.run_pass())

    residuals = [c.get("residual", 0.0) for c in runner.checks.values()]
    return {
        "setup": setup,
        "passes": passes,
        "setup_spans": setup_spans,
        "pass_spans": tracer.take(),
        "endpoint_residual_max": (max(residuals, default=0.0)
                                  if workload.simulates else 0.0),
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "record": {
            "workload": workload.name,
            "seed": args.seed,
            "inputs": {s.name: sha256(s.text) for s in scenarios},
            "outputs": runner.reference,
            "checks": runner.checks,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "netpass": netpass.__version__,
            },
        },
    }


if __name__ == "__main__":
    main()
