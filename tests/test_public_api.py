"""The package's public surface: every exported name resolves, and README's examples hold."""

import importlib
import json
import re
from pathlib import Path

import pytest

from netpass import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["netpass"] + [f"netpass.{path.stem}"
                         for path in sorted((ROOT / "src" / "netpass").glob("*.py"))
                         if not path.stem.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    # the block's comment promises ~1e-8; it prints 3.6e-9
    assert float(capsys.readouterr().out) < 1e-7


def test_readme_scenario_example_is_the_schemas_defaults():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Scenario format", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))
    assert config_from_dict(block).to_dict() == block
