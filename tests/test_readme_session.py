"""README's console sessions, replayed command by command.

Each ``$`` line of a ``console`` block runs in one shared temporary
directory, with ``vertexcoh`` standing for ``python -m vertexcoh.cli`` on
this checkout's ``src``, and its stdout must equal the lines printed under
it.  So an example that drifts from the program fails the suite.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sessions(text: str) -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for every ``$`` line, in order."""
    steps: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```console\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return [(cmd, "\n".join(out).strip("\n").splitlines()) for cmd, out in steps]


def test_readme_console_sessions_replay(tmp_path):
    steps = _sessions((ROOT / "README.md").read_text())
    commands = [cmd for cmd, _out in steps]
    for wanted in ("vertexcoh check --preset dual-numbers",
                   "vertexcoh h2 --preset dual-numbers",
                   "vertexcoh check total.txt"):
        assert wanted in commands
    assert any(" --out " in cmd for cmd in commands)
    for sub in ("deform", "equiv"):
        assert any(cmd.startswith(f"vertexcoh {sub} ") for cmd in commands)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    program = f"{shlex.quote(sys.executable)} -m vertexcoh.cli"
    for cmd, expected in steps:
        if cmd.startswith("vertexcoh "):
            cmd = program + cmd[len("vertexcoh"):]
        run = subprocess.run(cmd, shell=True, cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.stderr == "", cmd
        assert run.stdout.splitlines() == expected, cmd
