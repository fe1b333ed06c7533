"""README's module list keeps up with the package."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "kernelnn").glob("*.py") if p.stem != "__init__")


def whats_inside() -> str:
    text = (ROOT / "README.md").read_text()
    return re.search(r"^What's inside:$(.*?)^## ", text, re.M | re.S).group(1)


@pytest.mark.parametrize("module", MODULES)
def test_readme_describes_every_module(module):
    assert f"`kernelnn.{module}`" in whats_inside()
