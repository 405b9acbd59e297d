"""Run the docstring examples sprinkled through the library modules, and the
README's quick start."""
import doctest
import re
from pathlib import Path

import pytest

import weaksort.counting
import weaksort.perms
import weaksort.series

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", [weaksort.perms, weaksort.counting, weaksort.series]
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_quick_start():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    test = doctest.DocTestParser().get_doctest(
        "".join(blocks), {}, "README.md", str(README), 0
    )
    failed, attempted = doctest.DocTestRunner().run(test)
    assert (failed, attempted > 0) == (0, True)
