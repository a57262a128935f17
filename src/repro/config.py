"""Deployment settings — the only module in ``src/`` that reads the environment.

How a run executes (overlapped or synchronous schedule, fused or
interpreted program, SpMM backend, SDDMM chunk, admission policy) is an
argument of the call that runs it, with the production value as its
default. One setting belongs to a deployment rather than to a call:

``REPRO_TRACE``
    ``1/true/on/yes`` or ``0/false/off/no`` (default off): every SPMD
    rank records a :class:`~repro.obs.tracer.Tracer`.

One path is a deployment's too: :func:`kernel_cache_dir`, where the
compiled attention sweep is kept (``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``).

The accessor reads its variable at *call* time (a caller may set
``REPRO_TRACE`` around one traced unit), treats unset or empty as the
default, and raises ``ValueError`` naming the variable otherwise: a
silently ignored typo would defeat the setting.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

__all__ = [
    "TRACE_ENV_VAR",
    "trace_enabled_default",
    "kernel_cache_dir",
]

TRACE_ENV_VAR = "REPRO_TRACE"
_TRUE = frozenset({"1", "true", "on", "yes"})
_FALSE = frozenset({"0", "false", "off", "no"})


def _flag(name: str) -> bool:
    raw = os.environ.get(name, "").strip()
    if raw.lower() in _TRUE:
        return True
    if not raw or raw.lower() in _FALSE:
        return False
    raise ValueError(f"${name}={raw!r}: use one of {sorted(_TRUE | _FALSE)}")


def trace_enabled_default() -> bool:
    """Whether ``$REPRO_TRACE`` asks for tracing (default: no)."""
    return _flag(TRACE_ENV_VAR)


def kernel_cache_dir() -> str:
    """The directory compiled kernels are cached in, created ``0700``.

    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``. A candidate this
    user does not own or cannot write is refused (a shared object is
    loaded from here); with neither usable the answer is a private
    ``tempfile.mkdtemp`` directory, removed at exit.
    """
    home_cache = os.path.join(os.path.expanduser("~"), ".cache")
    for base in (os.environ.get("XDG_CACHE_HOME", "").strip(), home_cache):
        if not os.path.isabs(base):  # unset; XDG says ignore a relative one
            continue
        path = os.path.join(base, "repro")
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            if os.stat(path).st_uid == os.getuid() and os.access(path, os.W_OK):
                return path
        except OSError:
            continue
    path = tempfile.mkdtemp(prefix="repro-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path
