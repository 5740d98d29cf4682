"""The README's library example runs and prints what its comments say; its CLI lines parse."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from conelab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments():
    code = _library_example()
    comments = {re.match(r"\s*print\((.*)\)\s", line).group(1): line.split("# ", 1)[1]
                for line in code.splitlines() if line.lstrip().startswith("print(")}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == comments["weight_window(cs)"]
    assert lines[1:3] == comments["entry.rho, entry.mode_orders"].split(", then ")
    # "includes the log term at rho=0": the term (rho, m, mode) = (0, 1, 'k=0')
    assert comments["[t for t in enumerate_asymptotics(ps).terms]"] == \
        "includes the log term at rho=0"
    assert "(0, 1, 'k=0')" in lines[3] and len(lines) == 4


def test_readme_cli_lines_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("conelab ")]
    assert len(lines) == 9
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.cmd == line.split()[1]
