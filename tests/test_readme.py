"""README's python blocks run: the Quickstart, "Elastic scale-out" and
"Concurrency & QoS" blocks execute in order in one namespace (the later
blocks reuse the Quickstart's ``graph`` and ``query``), so a change that
breaks the documented surface fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: 1-based positions of the ```python blocks this test runs, in order
RUN_BLOCKS = (1, 6, 9)


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_blocks_run_in_one_namespace(capsys):
    blocks = python_blocks()
    namespace: dict = {"__name__": "readme"}
    for n in RUN_BLOCKS:
        exec(compile(blocks[n - 1], f"README.md python block {n}", "exec"), namespace)
    assert namespace["state"].phase == "done"
    assert sorted(namespace["outcome"].result.vertices) == [namespace["data"]]
    assert capsys.readouterr().out.strip()
