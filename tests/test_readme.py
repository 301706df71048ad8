"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_quickstart_converges():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    problem = namespace["problem"]
    final = namespace["empirical_loss"](problem, namespace["state"].theta)
    optimum = problem.closed_form_empirical(problem.closed_form_minimizer())
    assert abs(final - optimum) <= 0.1 * optimum
