import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
