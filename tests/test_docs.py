"""The README's code runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, f"{README.name}: Library quick start", "exec"), namespace)
    assert namespace["vec"].values.shape == (45,)
    assert len(namespace["dec"].imfs) >= 1
