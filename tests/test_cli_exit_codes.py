"""Every schema-valid scenario ends the command line in an exit code.

Hypothesis draws small scenarios (n <= 4, every agent and controller kind,
every gain mode) with extreme valid numbers, 1e-300 to 1e300, for the margin,
the step and horizon, the steady tolerance, the solver's step and tolerance,
and the mismatch tolerance.  The five scenario commands run on each through
``cli.main``; each must return 0-3 and raise nothing.  A run takes at most
about ``MAX_STEPS`` RK4 steps and solver iterations, so the test takes a few
seconds; the exception is a step and horizon whose step count t_max / dt
overflows the float range, drawn on purpose, which validation refuses.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from netpass.cli import main

MAX_STEPS = 2000


def powers(low, high):
    """Positive floats m * 10^e with e in low..high, log-uniform over the decades."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(low, high))


EXTREME = powers(-300, 299)


@st.composite
def step_and_horizon(draw):
    """(dt, t_max), None for a default: at most about MAX_STEPS steps, or an overflowing count."""
    kind = draw(st.sampled_from(["both", "step", "horizon", "overflow", "overflow-default"]))
    if kind == "both":
        dt = draw(EXTREME)
        return dt, dt * draw(st.floats(0.01, MAX_STEPS))
    if kind == "step":  # at most 500 steps over the default horizon of 5000
        return draw(powers(1, 299)), None
    if kind == "horizon":  # at most 1000 default steps, which are at least 1e-4 long
        return None, draw(powers(-300, -2))
    if kind == "overflow":  # t_max / dt >= 1e310 / 9.99
        exponent = draw(st.integers(-300, -10))
        return draw(powers(exponent, exponent)), draw(powers(exponent + 310, 300))
    return draw(powers(-306, -306)), None  # 5000 / dt > 5e308


AGENTS = st.one_of(
    st.builds(lambda kappa, v0, v1: {"kind": "traffic", "kappa": kappa, "v0": v0,
                                     "v1": v1 if kappa > 0 else -v1},
              st.sampled_from([-1.5, -1.0, 0.5, 1.0, 2.0]), st.floats(-50.0, 50.0),
              st.floats(0.2, 3.0)),
    st.just({"kind": "integrator"}),
    st.builds(lambda a, c, tau, rho: {"kind": "static_affine", "a": a, "c": c, "tau": tau,
                                      "rho": rho},
              st.floats(0.2, 3.0), st.floats(-20.0, 20.0), st.floats(0.1, 5.0),
              st.floats(-2.0, 2.0)),
)
CONTROLLERS = st.one_of(st.just({"kind": "tanh_integrator"}),
                        st.builds(lambda w: {"kind": "static_gain", "w": w}, st.floats(0.1, 5.0)))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [[j, i] if draw(st.booleans()) else [i, j] for i, j in chosen]
    dt, t_max = draw(step_and_horizon())
    return {
        "graph": {"n": n, "edges": edges},
        "agents": [draw(AGENTS) for _ in range(n)],
        "controllers": [draw(CONTROLLERS) for _ in edges],
        "gain_mode": draw(st.sampled_from(["none", "network_only", "hybrid"])),
        "self_regulating": draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)),
        "epsilon": draw(st.none() | EXTREME),
        "sim": {"dt": dt, "t_max": t_max, "steady_tol": draw(EXTREME),
                "seed": draw(st.integers(0, 2**32 - 1))},
        "solver": {"step": draw(EXTREME), "tol": draw(EXTREME),
                   "max_iter": draw(st.integers(1, MAX_STEPS))},
        "mismatch_tol": draw(EXTREME),
    }


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scenarios())
def test_every_command_ends_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as out:
        scenario = Path(out) / "scenario.json"
        scenario.write_text(json.dumps(data))
        for argv in (["check"], ["synthesize"], ["simulate", "--out-csv", f"{out}/t.csv"],
                     ["optimize"], ["verify", "--out-trajectory", f"{out}/v.csv"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([argv[0], str(scenario), *argv[1:]])
            assert code in (0, 1, 2, 3), (argv, code)
