"""Golden tests for the command line: stdout, exit code and every written file.

Each case runs ``cli.main`` in-process on a scenario file from
``tests/golden/`` and compares, byte for byte, what it printed and every
file it wrote against ``tests/golden/expected/<case>/``.  The scenarios are
a consensus pair that passes, a mixed pair whose rate sum is zero (so
network gains alone are infeasible), a ``gain_mode: "none"`` pair whose
short agent blows up, and a 4-vertex graph mixing traffic and static-affine
agents with static-gain and saturated-integrator edges, whose horizon is
capped so that the run stops before it settles.

Regenerate the expected files with ``PYTHONPATH=src python
tests/test_cli_golden.py`` only when an output change is intended, and
review the diff it leaves.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from netpass.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
SCENARIOS = ("consensus", "mixed_pair", "none_blowup", "mixed4")

# Expected exit code per scenario for check, synthesize, simulate, optimize
# and verify.
EXIT_CODES = {
    "consensus": (0, 0, 0, 0, 0),
    "mixed_pair": (1, 1, 1, 1, 1),
    "none_blowup": (1, 1, 2, 2, 1),
    "mixed4": (0, 0, 2, 0, 2),
}


def _cases():
    cases = []
    for name in SCENARIOS:
        scenario = f"{{golden}}/{name}.json"
        check, synth, sim, opt, ver = EXIT_CODES[name]
        cases += [
            (f"check-{name}", check,
             ["check", scenario, "--out", "{out}/check.json"]),
            (f"synthesize-{name}", synth,
             ["synthesize", scenario, "--out", "{out}/synthesize.json"]),
            (f"simulate-{name}", sim,
             ["simulate", scenario, "--out-csv", "{out}/trajectory.csv",
              "--out", "{out}/simulate.json"]),
            (f"optimize-{name}", opt,
             ["optimize", scenario, "--out", "{out}/optimize.json"]),
            (f"verify-{name}", ver,
             ["verify", scenario, "--out-json", "{out}/report.json",
              "--out-trajectory", "{out}/trajectory.csv",
              "--out-pairs", "{out}/pairs.csv"]),
        ]
    cases += [
        ("synthesize-mixed_pair-hybrid", 0,
         ["synthesize", "{golden}/mixed_pair.json", "--hybrid", "--vsr", "1",
          "--epsilon", "0.5", "--out", "{out}/synthesize.json"]),
        ("synthesize-mixed4-hybrid", 0,
         ["synthesize", "{golden}/mixed4.json", "--hybrid", "--vsr", "2,0",
          "--epsilon", "0.25", "--out", "{out}/synthesize.json"]),
        ("simulate-mixed_pair-hybrid", 0,
         ["simulate", "{golden}/mixed_pair.json", "--hybrid", "--vsr", "0",
          "--out", "{out}/simulate.json"]),
        ("optimize-consensus-epsilon", 0,
         ["optimize", "{golden}/consensus.json", "--epsilon", "2",
          "--out", "{out}/optimize.json"]),
        ("casestudy-n4-s6", 0,
         ["casestudy", "--n", "4", "--seed", "6",
          "--config-out", "{out}/scenario.json"]),
    ]
    return cases


CASES = _cases()


def run_case(argv, out_dir):
    """Run the CLI in-process; return (exit code, stdout)."""
    args = [a.format(golden=GOLDEN, out=out_dir) for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    return code, stdout.getvalue()


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name,exit_code,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_matches_golden(name, exit_code, argv, tmp_path):
    code, stdout = run_case(argv, tmp_path)
    expected = EXPECTED / name
    assert code == exit_code
    assert stdout == (expected / "stdout").read_text()
    written = _files(tmp_path)
    golden = _files(expected)
    del golden["stdout"]
    assert sorted(written) == sorted(golden)
    for file_name, content in golden.items():
        assert written[file_name] == content, file_name


@pytest.mark.parametrize("scenario", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_check_synthesize_and_verify_agree_on_feasibility(scenario, tmp_path):
    check_code, check_out = run_case(["check", str(scenario)], tmp_path)
    synth_code, _ = run_case(["synthesize", str(scenario)], tmp_path)
    _, verify_out = run_case(["verify", str(scenario)], tmp_path)
    infeasible = not json.loads(check_out)["feasible"]
    assert (check_code == 1) == infeasible
    assert (synth_code == 1) == infeasible
    assert (json.loads(verify_out)["verdict"] == "infeasible") == infeasible


def _regenerate():
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name, exit_code, argv in CASES:
        out_dir = EXPECTED / name
        out_dir.mkdir(parents=True)
        code, stdout = run_case(argv, out_dir)
        (out_dir / "stdout").write_text(stdout)
        flag = "" if code == exit_code else f"  (table says {exit_code})"
        print(f"{name}: exit {code}{flag}")


if __name__ == "__main__":
    _regenerate()
