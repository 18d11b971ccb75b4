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
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netpass
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


# Runs every golden case in an interpreter where importing scipy fails, and
# prints the name of each case whose exit code, stdout or files differ.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_cli_golden import CASES, EXPECTED, _files, run_case

for name, exit_code, argv in CASES:
    with tempfile.TemporaryDirectory() as out:
        code, stdout = run_case(argv, Path(out))
        written = _files(Path(out))
    golden = _files(EXPECTED / name)
    if code != exit_code or stdout.encode() != golden.pop("stdout") or written != golden:
        print(name)
"""


def _python(*args):
    """Run a fresh interpreter that imports this netpass; return its stdout."""
    src = str(Path(netpass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_command_matches_its_golden_without_scipy():
    assert _python("-c", _WITHOUT_SCIPY, str(Path(__file__).resolve().parent)) == ""


def test_importing_netpass_loads_no_scipy():
    loaded = _python("-c", "import sys, netpass, netpass.cli; "
                           "print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert loaded.split() == []


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
