"""Each demo script runs to completion, and the README's quick start
prints what it shows."""

import doctest
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start():
    # the README's >>> block, run as a doctest, so a moved bracket end
    # or a changed repr cannot leave it stale
    readme = ROOT / "README.md"
    block = re.search(r"```python\n(>>> .*?)```", readme.read_text(), re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(readme), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries >= 5 and runner.failures == 0
