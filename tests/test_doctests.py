"""Run the docstring examples of every library module, and the README's
quick start."""
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import weaksort

README = Path(__file__).resolve().parents[1] / "README.md"

#: the package and every module in it
MODULES = [weaksort] + [
    importlib.import_module(f"weaksort.{info.name}")
    for info in pkgutil.iter_modules(weaksort.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_module_doctests(module):
    failures, attempted = doctest.testmod(module)
    assert failures == 0
    # a module whose source holds examples must run some, or an example
    # that doctest cannot reach would pass unseen
    if ">>> " in Path(module.__file__).read_text(encoding="utf-8"):
        assert attempted > 0


def test_readme_quick_start():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", str(README), 0
    )
    failed, attempted = doctest.DocTestRunner().run(test)
    assert (failed, attempted > 0) == (0, True)
