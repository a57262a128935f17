"""Which ``src/`` functions does no entry point call?

Runs the examples, the six end-to-end workloads (``--smoke``, untraced
and traced), the traced distributed report and every figure and
ablation suite under ``benchmarks/``, each in a child interpreter whose
``sitecustomize`` records, through ``sys.setprofile`` and
``threading.setprofile``, every code object it calls. Prints each
function of ``src/repro`` that none of them called and
``tests/reach_allowlist.txt`` does not name, and each allow-listed one
that they did call (a stale entry), and exits 1 if there is either
(Python 3.11 or later, for ``co_qualname``)::

    python tests/reach_probe.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")
RECORDER = """import atexit, os, sys, threading
seen = set()
def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.setprofile(record)
threading.setprofile(record)
@atexit.register
def dump():
    sys.setprofile(None)
    with open(os.path.join({out!r}, str(os.getpid())), "a") as f:
        f.writelines(f"{{os.path.realpath(c.co_filename)}}::{{c.co_qualname}}\\n" for c in seen)
"""
ENTRY_POINTS = [  # (extra environment, arguments of the interpreter)
    *(({}, [f"examples/{p.name}"]) for p in sorted((ROOT / "examples").glob("*.py"))),
    ({}, ["benchmarks/e2e/run.py", "--smoke", "--trace", "0"]),
    ({}, ["benchmarks/e2e/run.py", "--smoke", "--trace", "1"]),
    ({"REPRO_TRACE": "1"}, ["-m", "repro.obs.report", "--case", "distributed", "--out-dir", "{tmp}"]),
    # --benchmark-disable: pytest-benchmark pauses sys.setprofile while it
    # times a benchmark, which would hide every call made inside one.
    ({}, ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", "benchmarks",
          "--ignore=benchmarks/e2e"]),
]


def functions() -> dict[str, tuple[int, int]]:
    """``path::qualname`` of every function under ``src/`` -> (first, last) line."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[f"{path}::{prefix}{child.name}"] = (child.lineno, child.end_lineno)
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(SRC.rglob("*.py")):
        visit(ast.parse(file.read_text()), file.relative_to(ROOT).as_posix(), "")
    return found


def allowlist() -> dict[str, str]:
    """``path::qualname`` -> reason, for every line of the allow-list."""
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            entries[name.strip()] = reason.strip()
    return entries


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(RECORDER.format(out=tmp))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([tmp, str(SRC)])}
        for extra, args in ENTRY_POINTS:
            command = [sys.executable, *(a.format(tmp=tmp) for a in args)]
            print("$", *command[1:], flush=True)
            subprocess.run(command, cwd=ROOT, env={**env, **extra}, check=True,
                           stdout=subprocess.DEVNULL)
        called = {line.replace(f"{ROOT}/", "", 1) for f in Path(tmp).iterdir()
                  if f.name.isdigit() for line in f.read_text().splitlines()}
    table, allowed = functions(), allowlist()

    def listed(name):
        return any(name == a or name.startswith(f"{a}.<locals>.") for a in allowed)

    # A nested function is reported only when the one defining it ran.
    unreached = [n for n in table if n not in called and not listed(n) and (
        "<locals>" not in n or n.rsplit(".<locals>.", 1)[0] in called)]
    lines = dict.fromkeys(("reached", "allow-listed", "unreached"), 0)
    for name, (first, last) in table.items():
        if "<locals>" not in name:  # nested lines count with their definer
            kind = "reached" if name in called else "allow-listed" if listed(name) else "unreached"
            lines[kind] += last - first + 1
    stale = sorted(name for name in allowed if name in called)
    print(*unreached, *(f"allow-listed but reached: {name}" for name in stale), sep="\n")
    print("function lines:", ", ".join(f"{k} {v}" for k, v in lines.items()))
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
