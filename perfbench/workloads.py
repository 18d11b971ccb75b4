"""The four benchmark workloads: seeded inputs, the timed call, the check.

Every workload is a fixed list of named scenarios.  The workload seed does
not pick the scenarios; it relabels them.  Seed 0 runs each scenario exactly
as generated.  Any other seed permutes the vertex labels, the edge order and
the edge orientations, and pins the initial state that the generated
scenario would have drawn.  A relabelled scenario is the same physical
problem written differently, so its inputs and output bytes change with the
seed while the work, the verdicts and the known failures stay put.

Workloads call only public netpass functions, looked up on the package's
modules at call time so that the tracer's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import netpass
import netpass.cli
import netpass.harness

# Endpoint stationarity residual above which a simulated or optimized output
# is not a steady state.  Healthy runs measure at most 5.5e-7 (an export
# scenario, recomputed from the 12-digit JSON values); the windup endpoints
# measure 2.83.
STATIONARITY_TOL = 1e-5


@dataclass
class Scenario:
    name: str
    config: object  # netpass.ScenarioConfig
    path: Path = None  # scenario file, for workloads that go through the CLI

    @property
    def text(self):
        return json.dumps(self.config.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass
class Check:
    """Outcome of the benchmark's own check of one scenario's output."""

    problems: list = field(default_factory=list)
    residual: float = 0.0
    verdict: str = None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------


def _hybrid_if_short(data):
    """Switch a scenario whose rate sum is not positive to hybrid mode."""
    if sum(a["kappa"] for a in data["agents"]) <= 0.0:
        data["gain_mode"] = "hybrid"
        data["self_regulating"] = [0]
    return data


def case_study(n, seed):
    data = netpass.harness.generate_case_study(n, seed).to_dict()
    return _hybrid_if_short(data)


def hybrid_rescue(n, seed):
    """Case study whose positive-rate agents are flipped until the sum is negative.

    Agents are flipped in an order drawn from ``seed``; vertex 0 self-regulates.
    """
    data = netpass.harness.generate_case_study(n, seed).to_dict()
    agents = data["agents"]
    positive = [i for i, a in enumerate(agents) if a["kappa"] > 0.0]
    total = sum(a["kappa"] for a in agents)
    for i in np.random.default_rng(seed).permutation(positive):
        if total < 0.0:
            break
        agents[i].update(kappa=-1.0, v1=-0.8)
        total -= 2.0
    data["gain_mode"] = "hybrid"
    data["self_regulating"] = [0]
    return data


def sparse_mixed(n, seed, extra_edge_p=0.3):
    """Case-study agents on a random connected sparse graph, mixed controllers.

    A random recursive tree (vertex k joins a uniformly drawn earlier
    vertex) plus each other pair with probability ``extra_edge_p``; each
    edge carries a static gain (w ~ U[0.5, 2]) or a saturated integrator
    with even odds.
    """
    data = case_study(n, seed)
    rng = np.random.default_rng(seed)
    edges = [[int(rng.integers(k)), k] for k in range(1, n)]
    tree = {tuple(e) for e in edges}
    edges += [[i, j] for i in range(n) for j in range(i + 1, n)
              if (i, j) not in tree and rng.random() < extra_edge_p]
    controllers = []
    for _ in edges:
        if rng.random() < 0.5:
            controllers.append({"kind": "static_gain",
                                "w": float(rng.uniform(0.5, 2.0))})
        else:
            controllers.append({"kind": "tanh_integrator"})
    data["graph"] = {"n": n, "edges": edges}
    data["controllers"] = controllers
    return data


def relabel(data, rng):
    """The same scenario with permuted vertices and edges and flipped orientations.

    Pins the initial state the original would have drawn (``simulate`` draws
    it uniformly over [min anchor - 10, max anchor + 10] from the sim seed),
    so the relabelled run integrates the same trajectory.  Every controller
    is odd in the relative output, so flipping an edge only flips the sign
    of its state.
    """
    n = data["graph"]["n"]
    if data["sim"]["x0"] is None:
        anchors = netpass.harness.build_system_parts(
            netpass.config_from_dict(data))[1].anchors
        x0 = np.random.default_rng(data["sim"]["seed"]).uniform(
            anchors.min() - 10.0, anchors.max() + 10.0, n)
    else:
        x0 = np.array(data["sim"]["x0"])
    perm = rng.permutation(n)
    agents = [None] * n
    x0_new = [0.0] * n
    for i, new in enumerate(perm):
        agents[new] = data["agents"][i]
        x0_new[new] = float(x0[i])
    edges, controllers = [], []
    flips = rng.random(len(data["graph"]["edges"])) < 0.5
    for k in rng.permutation(len(data["graph"]["edges"])):
        head, tail = (int(perm[v]) for v in data["graph"]["edges"][k])
        edges.append([tail, head] if flips[k] else [head, tail])
        controllers.append(data["controllers"][k])
    data["graph"]["edges"] = edges
    data["agents"] = agents
    data["controllers"] = controllers
    data["self_regulating"] = sorted(int(perm[v]) for v in data["self_regulating"])
    data["sim"]["x0"] = x0_new
    return data


def short(make, *args):
    """A generated scenario whose simulation stops at t = 1, for warm-up calls."""
    data = make(*args)
    data["sim"]["t_max"] = 1.0
    return data


def scenarios(specs, seed):
    """Validated scenarios from (name, generator, *args) specs and a seed."""
    out = []
    for index, (name, make, *args) in enumerate(specs):
        data = make(*args)
        if seed != 0:
            data = relabel(data, np.random.default_rng([seed, index]))
        out.append(Scenario(name, netpass.config_from_dict(data)))
    return out


# ----------------------------------------------------------------------
# checks shared by the simulated workloads
# ----------------------------------------------------------------------


def _endpoint_residual(config, gain, y):
    graph, agents, controllers = netpass.harness.build_system_parts(config)
    design = netpass.GainDesign(
        np.array(gain["alpha"]), np.array(gain["beta"]), gain["epsilon"],
        gain["threshold"], gain["certificate"])
    system = netpass.ClosedLoopSystem(graph, agents, controllers, design)
    return netpass.steady_state_residual(system, np.asarray(y, dtype=float))


def check_report(config, report):
    """Verdict, recomputed mismatch, and endpoint stationarity of a verify report.

    ``report`` is the report's dictionary form, raw or as read back from JSON.
    """
    check = Check(verdict=report["verdict"])
    if report["verdict"] != "pass":
        check.problems.append(f"verdict {report['verdict']}")
    sim, opt = report.get("sim"), report.get("opt")
    if not sim or sim.get("y_ss") is None or not opt:
        check.problems.append("no simulated or optimized steady state")
        return check
    y_ss = np.array(sim["y_ss"])
    mismatch = float(np.max(np.abs(y_ss - np.array(opt["y_star"]))))
    if mismatch > config.mismatch_tol:
        check.problems.append(
            f"mismatch {mismatch:.3g} > mismatch_tol {config.mismatch_tol:g}")
    check.residual = _endpoint_residual(config, report["gain"], y_ss)
    if check.residual > STATIONARITY_TOL:
        check.problems.append(
            f"endpoint stationarity residual {check.residual:.3g} "
            f"> {STATIONARITY_TOL:g}")
    return check


def _raw_report(report):
    return {"verdict": report.verdict, "sim": report.sim, "opt": report.opt,
            "gain": report.gain}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """A named list of scenario specs; subclasses define the timed call."""

    simulates = True

    def __init__(self, name, specs):
        self.name = name
        self.specs = specs

    def setup(self, seed, work_dir):
        return scenarios(self.specs, seed)

    def warm_up(self, work_dir):
        self.run(scenarios([("warm-up", short, case_study, 5, 1)], 0)[0])


class VerifyWorkload(Workload):
    """``verify`` on each scenario in turn; the report is the output."""

    def run(self, scenario):
        return netpass.verify(scenario.config)

    def digest(self, scenario, report):
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        return {"report.json": sha256(text)}

    def check(self, scenario, report):
        return check_report(scenario.config, _raw_report(report))


@dataclass
class Optimized:
    problem: object
    probe: float
    escalations: int
    certificate: object
    minimizer: object


class OptimizeWorkload(Workload):
    """The ``netpass optimize`` path: synthesize, certify, solve; no simulation."""

    simulates = False

    def run(self, scenario):
        config = scenario.config
        graph, agents, controllers = netpass.harness.build_system_parts(config)
        design, problem, probe, escalations = netpass.harness.synthesize_certified(
            config, graph, agents, controllers)
        certificate = netpass.check_design(agents.rho_vector, design.alpha,
                                           design.beta, graph)
        minimizer = netpass.solve(problem, step=config.solver_step,
                                  max_iter=config.solver_max_iter,
                                  tol=config.solver_tol)
        return Optimized(problem, probe, escalations, certificate, minimizer)

    def digest(self, scenario, out):
        m = out.minimizer
        payload = {
            "escalations": out.escalations,
            "convexity_probe": out.probe,
            "alpha": out.problem.alpha.tolist(),
            "beta": out.problem.beta.tolist(),
            "certificate": out.certificate.min_eig,
            "status": m.status.value,
            "iterations": m.iterations,
            "objective": m.objective_value,
            "y_star": m.y_star.tolist(),
            "zeta_star": m.zeta_star.tolist(),
        }
        return {"optimize.json": sha256(json.dumps(payload, sort_keys=True))}

    def check(self, scenario, out):
        check = Check(verdict=out.minimizer.status.value)
        if not out.certificate.positive_definite:
            check.problems.append(
                f"certificate not positive definite ({out.certificate.min_eig:.3g})")
        if out.minimizer.status is not netpass.SolveStatus.OPTIMAL:
            check.problems.append(f"solver status {out.minimizer.status.value}")
        check.residual, _ = netpass.stationarity_residual(
            out.problem, out.minimizer.y_star)
        if check.residual > STATIONARITY_TOL:
            check.problems.append(
                f"stationarity residual {check.residual:.3g} > {STATIONARITY_TOL:g}")
        return check


@dataclass
class Exported:
    exit_code: int
    stdout: str
    paths: dict


class ExportWorkload(Workload):
    """``netpass verify FILE`` with every output file, through ``cli.main``."""

    outputs = {"json": "--out-json", "trajectory": "--out-trajectory",
               "pairs": "--out-pairs"}

    def _write(self, items, work_dir):
        for scenario in items:
            scenario.path = work_dir / f"{scenario.name}.json"
            scenario.path.write_text(scenario.text)
        return items

    def setup(self, seed, work_dir):
        return self._write(scenarios(self.specs, seed), work_dir)

    def warm_up(self, work_dir):
        spec = [("warm-up", short, sparse_mixed, 5, 1)]
        self.run(self._write(scenarios(spec, 0), work_dir)[0])

    def run(self, scenario):
        stem = scenario.path.with_suffix("")
        paths = {key: Path(f"{stem}.out.{key}.{'json' if key == 'json' else 'csv'}")
                 for key in self.outputs}
        argv = ["verify", str(scenario.path)]
        for key, flag in self.outputs.items():
            argv += [flag, str(paths[key])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = netpass.cli.main(argv)
        return Exported(code, stdout.getvalue(), paths)

    def digest(self, scenario, out):
        """Hashes of the output files, which are then deleted for the next pass."""
        hashes = {}
        for key, path in out.paths.items():
            hashes[key] = file_sha256(path) if path.exists() else None
            path.unlink(missing_ok=True)
        return hashes

    def check(self, scenario, out):
        missing = [key for key, path in out.paths.items() if not path.exists()]
        if missing:
            return Check(problems=[f"exit code {out.exit_code}, no {missing} output"])
        with open(out.paths["json"]) as fh:
            text = fh.read()
        report = json.loads(text)
        check = check_report(scenario.config, report)
        if out.exit_code != 0:
            check.problems.append(f"exit code {out.exit_code}")
        if text != out.stdout:
            check.problems.append("JSON file differs from the printed report")
        check.problems += _check_trajectory(out.paths["trajectory"], report)
        check.problems += _check_pairs(out.paths["pairs"], report)
        return check


def _check_trajectory(path, report):
    """One row per time sample after the header, evenly spaced, ending at y_ss."""
    n = report["config"]["graph"]["n"]
    m = len(report["config"]["graph"]["edges"])
    problems = []
    times = []
    last = None
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) != 1 + n + m:
            problems.append(f"trajectory header has {len(header)} columns")
        for line in fh:
            if line.count(",") != n + m:
                problems.append(f"trajectory row {len(times)} is ragged")
                break
            times.append(float(line[:line.index(",")]))
            last = line
    if len(times) < 2:
        return problems + ["trajectory has fewer than two rows"]
    t = np.array(times)
    dt = t[1] - t[0]
    expected = np.arange(t.size) * dt
    if not np.allclose(t, expected, rtol=1e-9, atol=1e-9 * t[-1]):
        problems.append("trajectory times are not one row per step")
    if abs(t[-1] - report["sim"]["t_end"]) > 1e-9 * max(1.0, t[-1]):
        problems.append(f"trajectory ends at t={t[-1]}, report says "
                        f"{report['sim']['t_end']}")
    final = [float(v) for v in last.rstrip("\n").split(",")[1:1 + n]]
    if report["sim"]["y_ss"] is not None and final != report["sim"]["y_ss"]:
        problems.append("last trajectory row differs from the reported y_ss")
    return problems


def _check_pairs(path, report):
    with open(path) as fh:
        lines = fh.read().splitlines()
    y_ss, y_star = report["sim"]["y_ss"], report["opt"]["y_star"]
    rows = [tuple(float(v) for v in line.split(",")[1:]) for line in lines[1:]]
    if lines[:1] != ["vertex,y_ss,y_star"] or rows != list(zip(y_ss, y_star)):
        return ["pairs CSV does not match the JSON report"]
    return []


WORKLOADS = {
    w.name: w for w in (
        VerifyWorkload("sweep", [(f"case-study-n10-s{s}", case_study, 10, s)
                                 for s in range(8)]),
        VerifyWorkload("dense", [("case-study-n40-s7", case_study, 40, 7)]),
        OptimizeWorkload("optimize", [
            ("case-study-n80-s7", case_study, 80, 7),
            ("hybrid-rescue-n60-s3", hybrid_rescue, 60, 3)]),
        ExportWorkload("export", [
            ("sparse-mixed-n30-s0", sparse_mixed, 30, 0),
            ("sparse-mixed-n30-s1", sparse_mixed, 30, 1)]),
    )
}
