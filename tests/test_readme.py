"""The README's examples run: every python block executes and every
``gapdet ...`` command line parses."""

import os
import re
import shlex

from gapdet.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def code_blocks():
    """(language, body) of every fenced block in the README."""
    with open(README) as fh:
        text = fh.read()
    return re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = [body for lang, body in code_blocks() if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, README, "exec"), {})


def test_readme_command_lines_parse():
    lines = [ln.strip() for _, body in code_blocks()
             for ln in body.splitlines() if ln.strip().startswith("gapdet ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
