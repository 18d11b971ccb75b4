"""Spans around the public functions of each netpass layer.

``Tracer.install`` replaces each listed function with a wrapper, in every
loaded ``netpass`` module that binds it, so calls made from inside the
package go through the wrapper too.  While the tracer is active a wrapper
records a span: layer, function, parent span, start and end on the
``perf_counter`` clock, and counts taken from the call's result.  Inactive
wrappers call straight through.  Spans stay in memory as plain dictionaries.

``layer_metrics`` reduces spans to the per-layer numbers the benchmark
prints.  A span's self time is its duration minus the durations of its child
spans.  The program is single-threaded, so children never overlap and the
self times of all spans add up to the time the outermost spans cover.
"""

import functools
import os
import sys
import time

# layer -> public functions wrapped in it ("Class.method" for methods)
LAYER_FUNCTIONS = {
    "harness": ("generate_case_study", "config_from_dict", "load_config",
                "build_system_parts", "synthesize_certified", "verify",
                "emit_report"),
    "passivation": ("uniform_network_gain", "hybrid_gain",
                    "edge_gain_threshold", "check_design"),
    "netopt": ("build_problem", "solve", "RegularizedProblem.convexity_probe"),
    "sim": ("simulate",),
    "cli": ("main",),
}

CONFIG_FUNCTIONS = ("generate_case_study", "config_from_dict", "load_config")
GAIN_FUNCTIONS = ("uniform_network_gain", "hybrid_gain")


def _observe_simulate(args, kwargs, trajectory):
    arrays = (trajectory.times, trajectory.x_states, trajectory.eta_states)
    return {
        "steps": trajectory.times.size - 1,
        "t_end": float(trajectory.times[-1]),
        "traj_bytes": sum(a.nbytes for a in arrays),
    }


def _observe_solve(args, kwargs, minimizer):
    return {"iters": minimizer.iterations}


def _observe_verify(args, kwargs, report):
    return {} if report.mismatch is None else {"mismatch": report.mismatch}


def _observe_emit(args, kwargs, _result):
    names = ("json_path", "trajectory_csv", "pairs_csv")
    paths = list(args[1:]) + [kwargs.get(k) for k in names]
    return {"bytes": sum(os.path.getsize(p) for p in paths
                         if p is not None and os.path.exists(p))}


_OBSERVERS = {
    "simulate": _observe_simulate,
    "solve": _observe_solve,
    "verify": _observe_verify,
    "emit_report": _observe_emit,
}


class Tracer:
    """In-memory span recorder for the wrapped netpass functions."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._open = []  # indices of the spans being executed, innermost last

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = {"layer": layer, "name": name, "counts": {},
                    "parent": tracer._open[-1] if tracer._open else None}
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._open.pop()
            if observe is not None:
                span["counts"] = observe(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever a netpass module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "netpass" or k.startswith("netpass.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"netpass.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self._wrap(layer, method,
                                                    getattr(cls, method)))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


def self_times(spans, elapsed):
    """(duration, self time) of each span, with ``elapsed(start, end)`` as clock."""
    durations = [elapsed(s["start"], s["end"]) for s in spans]
    selfs = list(durations)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            selfs[s["parent"]] -= d
    return durations, selfs


def layer_metrics(setup_spans, pass_spans, elapsed):
    """Per-layer metrics from the set-up spans and one traced pass."""
    spans = pass_spans
    durations, selfs = self_times(spans, elapsed)

    def total(names, values):
        return sum(v for s, v in zip(spans, values) if s["name"] in names)

    def count(names, counter=None):
        return sum(s["counts"].get(counter, 0) if counter else 1
                   for s in spans if s["name"] in names)

    setup_selfs = self_times(setup_spans, elapsed)[1]
    config_s = sum(v for s, v in zip(setup_spans + spans, setup_selfs + selfs)
                   if s["name"] in CONFIG_FUNCTIONS)
    steps = count({"simulate"}, "steps")
    iters = count({"solve"}, "iters")
    solve_s = total({"solve"}, selfs)
    simulate_s = total({"simulate"}, selfs)
    mismatches = [s["counts"]["mismatch"] for s in spans
                  if "mismatch" in s["counts"]]
    metrics = {
        "harness.config_s": config_s,
        "harness.build_s": total({"build_system_parts"}, selfs),
        "harness.verify_self_s": total({"verify"}, selfs),
        "harness.emit_s": total({"emit_report"}, selfs),
        "harness.emit_mb": count({"emit_report"}, "bytes") / 2**20,
        "harness.max_mismatch": max(mismatches, default=0.0),
        "passivation.rounds": count(GAIN_FUNCTIONS),
        "passivation.synth_s": total({"synthesize_certified"}, durations),
        "passivation.threshold_calls": count({"edge_gain_threshold"}),
        "passivation.threshold_s": total({"edge_gain_threshold"}, durations),
        "passivation.cert_s": total({"check_design"}, durations),
        "netopt.probe_calls": count({"convexity_probe"}),
        "netopt.probe_s": total({"convexity_probe"}, durations),
        "netopt.solve_s": solve_s,
        "netopt.iters": iters,
        "netopt.us_per_iter": solve_s / iters * 1e6 if iters else 0.0,
        "sim.simulate_s": simulate_s,
        "sim.steps": steps,
        "sim.us_per_step": simulate_s / steps * 1e6 if steps else 0.0,
        "sim.t_end": count({"simulate"}, "t_end"),
        "sim.traj_mb": count({"simulate"}, "traj_bytes") / 2**20,
    }
    for layer in LAYER_FUNCTIONS:
        metrics[f"{layer}.self_s"] = sum(
            v for s, v in zip(spans, selfs) if s["layer"] == layer)
    return metrics
