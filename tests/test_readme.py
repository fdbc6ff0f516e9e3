"""README's library example runs, and prints what its comments show."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_SHOWN = re.compile(r"-?\d+(?:\.(\d+))?(\.\.\.)?")  # "..." marks digits cut short
_PRINTED = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _agrees(shown: str, printed: str) -> bool:
    """Same words, and each number equal to the shown one to the digits shown."""
    return _SHOWN.sub("#", shown) == _PRINTED.sub("#", printed) and all(
        value.startswith(m.group(0)[:-3]) if m.group(2) else
        abs(float(value) - float(m.group(0))) < 0.5 * 10.0 ** -len(m.group(1) or "")
        for m, value in zip(_SHOWN.finditer(shown), _PRINTED.findall(printed)))


def test_readme_library_example():
    assert _agrees("[2, 1]", "[2.0, 1.0]") and _agrees("0.666...", "0.6666666666666666")
    assert not (_agrees("0.667...", "0.6666") or _agrees("ideal 1.0", "ideal 1.06"))
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    printed = iter(out.getvalue().splitlines())
    stated = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code.startswith("print("):
            stated.append((comment, next(printed)))
        elif "=" in code and comment and set(_SHOWN.sub("", comment)) <= set("[], "):
            stated.append((comment, repr(namespace[code.split("=")[0].strip()])))
    stated = [(comment, got) for comment, got in stated if comment]
    assert len(stated) == 4 and all(_agrees(*pair) for pair in stated), stated
