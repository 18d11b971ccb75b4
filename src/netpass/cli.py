"""Command-line entry points.

``check``, ``synthesize``, ``simulate`` and ``optimize`` run a prefix of the
``verify`` pipeline's stages and print the payloads those stages build.

Exit codes: 0 on success/pass, 1 when the requested design is infeasible,
2 when a run fails (simulation blowup or non-convergence, solver stall,
steady-state mismatch), 3 on bad input (unreadable file, invalid JSON,
schema violation) or an output file that cannot be written.
"""

import argparse
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    NetpassError,
    NotPassivizableError,
)
from .harness import (
    config_from_dict,
    emit_report,
    generate_case_study,
    json_text,
    load_config,
    optimization_stage,
    read_scenario,
    round_floats,
    simulation_stage,
    synthesis_stage,
    synthesize_gain,
    verify,
)
from .passivation import component_sums

__all__ = ["main"]

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_RUN_FAILED = 2
EXIT_BAD_INPUT = 3


def _print_json(payload, path=None):
    """Print a payload rounded to 12 digits, and write the same text to ``path``."""
    text = json_text(round_floats(payload))
    if path:
        Path(path).write_text(text)
    sys.stdout.write(text)


def _scenario(args):
    """The overridden config, for the gain commands.

    The overrides replace the file's raw fields, so the scenario is
    validated, and its graph and models built, once.
    """
    data = read_scenario(args.config)
    if isinstance(data, dict):
        data = dict(data)
        if args.hybrid:
            data["gain_mode"] = "hybrid"
        if args.vsr is not None:
            try:
                data["self_regulating"] = [int(v) for v in args.vsr.split(",") if v != ""]
            except ValueError:
                raise ConfigError(f"--vsr must be a comma-separated list of "
                                  f"integers, got {args.vsr!r}")
        if args.epsilon is not None:
            data["epsilon"] = args.epsilon
    return config_from_dict(data)


def _cmd_check(args):
    config = load_config(args.config)
    graph, agents, _ = config.parts
    try:
        feasible = synthesize_gain(config, graph, agents).certificate.positive_definite
    except NotPassivizableError:
        feasible = False
    sums = component_sums(agents.rho_vector, graph)
    _print_json({
        "feasible": feasible,
        "rho": agents.rho_vector.tolist(),
        "component_vertices": [list(c) for c, _ in sums],
        "component_shortage_sums": [total for _, total in sums],
    }, args.out)
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _cmd_synthesize(args):
    _, _, probe, gain = synthesis_stage(_scenario(args))
    _print_json(dict(gain, feasible=gain["positive_definite"], convexity_probe=probe), args.out)
    return EXIT_OK if gain["positive_definite"] else EXIT_INFEASIBLE


def _cmd_simulate(args):
    config = _scenario(args)
    design = synthesize_gain(config, *config.parts[:2])
    sim = simulation_stage(config, design, record=args.out_csv)[1]
    _print_json(sim, args.out)
    return EXIT_OK if sim["converged"] else EXIT_RUN_FAILED


def _cmd_optimize(args):
    config = _scenario(args)
    _, problem, probe, _ = synthesis_stage(config)
    opt = optimization_stage(config, problem)[1]
    _print_json(dict(opt, convexity_probe=probe), args.out)
    return EXIT_OK if opt["status"] == "optimal" else EXIT_RUN_FAILED


def _cmd_verify(args):
    """``verify`` on a scenario file, or ``casestudy`` on a generated one."""
    if args.command == "casestudy":
        try:
            config = generate_case_study(args.n, args.seed)
        except ValueError as exc:
            raise ConfigError(f"casestudy: {exc}")
        if args.config_out:
            Path(args.config_out).write_text(json_text(config.to_dict()))
    else:
        config = load_config(args.config)
    report = verify(config, record=args.out_trajectory)
    sys.stdout.write(emit_report(report, json_path=args.out_json, pairs_csv=args.out_pairs))
    if report.passed:
        return EXIT_OK
    return EXIT_INFEASIBLE if report.verdict == "infeasible" else EXIT_RUN_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netpass",
        description="Passivation, simulation, and steady-state optimization "
                    "for diffusively coupled networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report whether a scenario admits a "
                                     "passivizing network gain")
    p.add_argument("config")
    p.add_argument("--out", help="also write the JSON result to this file")
    p.set_defaults(func=_cmd_check)

    # The scenario and the overrides shared by the gain commands.
    gain_args = argparse.ArgumentParser(add_help=False)
    gain_args.add_argument("config")
    gain_args.add_argument("--hybrid", action="store_true",
                           help="force hybrid mode regardless of the config")
    gain_args.add_argument("--vsr", help="comma-separated self-regulating vertices")
    gain_args.add_argument("--epsilon", type=float, help="override the gain margin")

    p = sub.add_parser("synthesize", parents=[gain_args],
                       help="compute network (and optional vertex) gains with "
                            "a certificate")
    p.add_argument("--out", help="also write the JSON result to this file")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", parents=[gain_args],
                       help="integrate the closed loop until it settles")
    p.add_argument("--out-csv", help="write the trajectory CSV here")
    p.add_argument("--out", help="also write the JSON summary to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", parents=[gain_args],
                       help="solve the regularized steady-state optimization")
    p.add_argument("--out", help="also write the JSON result to this file")
    p.set_defaults(func=_cmd_optimize)

    report_args = argparse.ArgumentParser(add_help=False)
    report_args.add_argument("--out-json", help="write the JSON report here")
    report_args.add_argument("--out-trajectory", help="write the trajectory CSV here")
    report_args.add_argument("--out-pairs", help="write the per-vertex pair CSV here")

    p = sub.add_parser("verify", parents=[report_args],
                       help="synthesize, simulate, optimize, and compare steady states")
    p.add_argument("config")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("casestudy", parents=[report_args],
                       help="generate the randomized traffic scenario and verify it")
    p.add_argument("--n", type=int, required=True,
                   help="number of vehicles (complete graph)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config-out", help="write the generated scenario here")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except NotPassivizableError as exc:
            # Only the gain commands let this through; verify reports it itself.
            _print_json({"feasible": False, "reason": str(exc)}, args.out)
            return EXIT_INFEASIBLE
    except OSError as exc:
        # read_scenario maps its own OSError, so this one is an output write.
        sys.stderr.write(f"error: cannot write {exc.filename}: {exc}\n")
        return EXIT_BAD_INPUT
    except NetpassError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT if isinstance(exc, ConfigError) else EXIT_RUN_FAILED


if __name__ == "__main__":
    sys.exit(main())
