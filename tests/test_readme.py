"""The README's examples, run as written: the CLI session and the library tour."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _cli_examples():
    """(command, shown output lines) for each command of the README's CLI session."""
    (session,) = [b for b in _blocks("sh") if "\ncoarsesum " in "\n" + b]
    examples = []
    for line in session.splitlines():
        if line.startswith("# "):
            examples[-1][1].append(line[2:])
        elif line.strip():
            examples.append((line, []))
    return examples


def _run_shown(command):
    """Run ``[printf TEXT |] coarsesum ARGS`` with ``python -m coarsesum.cli``."""
    stdin = None
    if "|" in command:
        feed, command = command.split("|")
        word, text = shlex.split(feed)
        assert word == "printf"
        stdin = text.replace("\\n", "\n")
    word, *args = shlex.split(command)
    assert word == "coarsesum"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "coarsesum.cli", *args], input=stdin,
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command, shown", _cli_examples(),
                         ids=lambda v: v.split("coarsesum ")[-1] if isinstance(v, str) else "")
def test_readme_cli_session_prints_what_it_shows(command, shown):
    assert shown, f"no output shown for {command!r}"
    done = _run_shown(command)
    assert done.returncode == 0, done.stderr
    # every shown line is an output line in order; "..." stands for any run of lines
    pattern = "".join(r"(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in shown)
    assert re.fullmatch(pattern, done.stdout), done.stdout


def test_readme_library_tour_gives_the_values_it_shows():
    (tour,) = _blocks("python")
    lines = tour.splitlines()
    namespace, checked = {}, {}
    for stmt in ast.parse(tour).body:
        source = ast.get_source_segment(tour, stmt)
        shown = re.search(r"#\s*->\s*([^\s:]+)", lines[stmt.end_lineno - 1])
        if shown is None:
            exec(compile(source, "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), source
        got = eval(compile(source, "README.md", "eval"), namespace)
        assert str(got) == shown.group(1), source
        checked[source] = got
    assert checked["ctx.cell_add(4, 5)"] == 6
    assert len(checked) == 8
