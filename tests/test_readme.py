"""The README's claims hold: every python block executes, every
``gapdet ...`` command line parses, and the runtime needs numpy only."""

import os
import re
import shlex
import subprocess
import sys

from gapdet.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


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


def test_runtime_imports_no_scipy():
    # a fresh process, so modules the test session loaded do not count
    code = ("import sys, gapdet, gapdet.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
