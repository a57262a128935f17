"""The reach probe's allow-list names real functions, each for a listed reason.

``python tests/reach_probe.py`` runs every entry point and is too slow for
tier-1; this keeps its allow-list from rotting in between: an entry whose
function was deleted or renamed, or whose reason is not one of the tags the
list's header defines, fails here.
"""

import ast

import pytest

from tests.reach_probe import ALLOWLIST, SRC, allowlist, functions

TAGS = ("error path", "fallback", "oracle", "cli", "interface", "deferred")
DEFERRED = (
    "src/repro/models/gin.py::", "src/repro/obs/", "::DistGCNLayer._backward_steps",
    "::Communicator._scatter_allgather_bcast_gen", "::Communicator._scatter_gen",
)
ENTRIES = allowlist()
FUNCTIONS = functions()


def _abstract_classes() -> set[str]:
    """``path::Class`` of every class deriving from ``ABC`` under ``src/``."""
    found = set()
    for file in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(file.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "ABC" for base in node.bases
            ):
                found.add(f"{file.relative_to(SRC.parent).as_posix()}::{node.name}")
    return found


ABSTRACT = _abstract_classes()


def test_the_list_is_not_empty_and_has_no_repeats():
    names = [
        line.partition("#")[0].strip()
        for line in ALLOWLIST.read_text().splitlines()
    ]
    names = [name for name in names if name]
    assert names and len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_names_a_function_for_a_listed_reason(name):
    assert name in FUNCTIONS, f"{name} is no function under src/"
    tag, _, why = ENTRIES[name].partition(":")
    assert tag in TAGS and why.strip(), f"{name}: reason {ENTRIES[name]!r}"
    qualname = name.split("::")[1]
    if tag == "deferred":
        assert any(d in name for d in DEFERRED), name
    if tag == "interface":
        owner = name.rsplit(".", 1)[0]
        assert (
            qualname.endswith("__repr__") or qualname == "__getattr__"
            or owner in ABSTRACT
        ), name
