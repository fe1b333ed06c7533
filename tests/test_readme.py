"""README keeps up with the package: its module and verify suite lists, and its library
example runs."""

import re
from pathlib import Path

import pytest

from kernelnn.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "kernelnn").glob("*.py") if p.stem != "__init__")


def whats_inside() -> str:
    text = (ROOT / "README.md").read_text()
    return re.search(r"^What's inside:$(.*?)^## ", text, re.M | re.S).group(1)


@pytest.mark.parametrize("module", MODULES)
def test_readme_describes_every_module(module):
    assert f"`kernelnn.{module}`" in whats_inside()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_readme_names_every_verify_suite(suite):
    text = (ROOT / "README.md").read_text()
    suites = re.search(r"^`verify` suites:(.*?)^$", text, re.M | re.S).group(1)
    assert f"`{suite}`" in suites


def test_library_example_runs_as_written():
    text = (ROOT / "README.md").read_text()
    example = re.search(r"^## Library example$.*?^```python$(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
