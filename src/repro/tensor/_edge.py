"""Builds and loads ``_edge.c`` on first use.

``_edge.c`` is the library's one compiled source, holding three things:
the C side of :mod:`repro.tensor.megakernel`'s ``attention_forward`` /
``attention_backward``, whose NumPy code is the other side; the
sampler's weighted selection ``smallest_per_segment``, whose NumPy side
is :func:`repro.tensor.sampling_graph._smallest_per_segment`; and the
sampler's hop ``sample_hop`` (Floyd's selection, edge gather and
compaction), whose NumPy side is the NumPy branch of
:func:`repro.tensor.sampling_graph._hop`. The first call of any (never
an import, never ``pip install``: the package runs
from ``src/`` uninstalled) compiles ``_edge.c`` with the system
``cc`` / ``gcc`` into :func:`repro.config.kernel_cache_dir`, under
a name hashed from source, flags, compiler version and the target the
flags resolve to on this host, written by temporary name and
``os.replace`` so racing processes each end with a whole file.
``ctypes.CDLL`` binds it and drops the GIL around every call. No
compiler, a failed build or an unloadable library leave :func:`entry`
answering ``None`` — callers then run their NumPy code — with the reason
kept for :func:`backend` and counted once in ``kernels.fallback``;
nothing is warned about.

The library is built for the CPU it runs on (``-march=native``): the
sweep is bound by instructions, not bytes, and ``_edge.c``'s eight-lane
vectors only pay at the host's vector width (built for baseline x86-64,
SSE2, the same code is 1.5x slower in the forward). The cache key
therefore hashes the host's resolved target (the compiler's predefined
macros under ``_FLAGS``): a cache directory shared between two CPUs
holds one library per CPU and never loads the other's. A compiler that
rejects the host flags builds once more without them (:func:`_portable`)
rather than leaving the sweep to NumPy. Bits do not depend on the build:
``-ffp-contract=off`` keeps the compiler from fusing a multiply and an
add into an FMA, which rounds once instead of twice, and no
``-ffast-math`` (NaN / inf semantics and the fixed summation order of
``_edge.c`` hold), so the host and the portable library agree bit for
bit. ``-mtune=intel`` because ``-march=native`` under a hypervisor that
hides the CPU model resolves to the *generic* tune, whose cost model
refuses hardware gathers for GAT's ``u[r] + v[c]`` score loop: measured
on a 2^15-vertex Kronecker graph (float32, Xeon with AVX-512 under KVM),
forward / backward 0.80 / 0.93 of the baseline build with the generic
tune against 0.66 / 0.85 with an Intel one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time

import numpy as np

from repro.config import kernel_cache_dir
from repro.obs.metrics import metrics

__all__ = ["entry", "run", "backend"]

_SOURCE = os.path.splitext(__file__)[0] + ".c"
_FLAGS = ("-O3", "-march=native", "-mtune=intel", "-ffp-contract=off", "-shared", "-fPIC")
_P, _I = ctypes.c_void_p, ctypes.c_int64
#: Argument types per entry point (``_edge.c`` has the parameter names).
_SIGNATURES = {
    "attention_forward": (
        _I, _P, _P, _I, _P, _I, _I, _P, _P, _P, _P, _I, _I, ctypes.c_double, _P,
        _I, _I, _P, _P, _P, _P,
    ),
    "attention_backward": (
        _I, _P, _P, _I, _P, _I, _I, _P, _P, _P, _P, _I, _I, ctypes.c_double, _P,
        _P, _I, _P, _P, _P, _I, _I, _P, _P, _P, _P, _P, _P, _P,
    ),
    "smallest_per_segment": (_I, _P, _I, _P, _I, _P, _P),
    "sample_hop": (_I, _P, _P, _P, _I, _P, _I, _P, _P, _P, _P, _P, _P, _P, _P, _P, _P),
}
_ROW_POINTER = "row pointer is not non-decreasing within the stored entries"
#: What an entry's status 1 means: the one input left for C to check.
_REFUSED = {
    "attention_forward": _ROW_POINTER,
    "attention_backward": _ROW_POINTER,
    "smallest_per_segment": "segment lengths must each exceed k >= 1 and sum to the key count",
    "sample_hop": "destinations must be strictly increasing vertex ids in [0, n)",
}
_SUFFIX = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_LOCK = threading.Lock()
#: ``(library or None, its path or why there is none)`` once resolved.
_state: tuple[ctypes.CDLL | None, str] | None = None


def _portable(flags: tuple[str, ...]) -> tuple[str, ...]:
    """``flags`` without the ones that pick the host's ISA and tuning."""
    return tuple(f for f in flags if not f.startswith(("-march=", "-mtune")))


def _target(cc: str, flags: tuple[str, ...]) -> bytes:
    """What ``flags`` resolve to on this host: the compiler's predefined macros."""
    return subprocess.run(
        [cc, *flags, "-E", "-dM", "-x", "c", os.devnull],
        capture_output=True, check=True, timeout=60,
    ).stdout


def _build() -> tuple[ctypes.CDLL, str]:
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler (cc, gcc) on PATH")
    version = subprocess.run(
        [cc, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    flags = _FLAGS
    try:
        target = _target(cc, flags)
    except subprocess.CalledProcessError:  # the compiler rejects the host flags
        flags = _portable(flags)
        target = _target(cc, flags)
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read() + repr(flags).encode() + version + target)
    path = os.path.join(kernel_cache_dir(), f"edge-{key.hexdigest()[:16]}.so")
    build_s = 0.0
    if not os.path.exists(path):
        t0 = time.perf_counter()
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
        try:
            subprocess.run(
                [cc, *flags, _SOURCE, "-o", tmp, "-lm"],
                capture_output=True, check=True, timeout=300,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        build_s = time.perf_counter() - t0
    lib = ctypes.CDLL(path)
    for name, argtypes in _SIGNATURES.items():
        for suffix in _SUFFIX.values():
            fn = getattr(lib, f"{name}_{suffix}")
            fn.argtypes, fn.restype = argtypes, ctypes.c_int
    metrics().gauge("kernels.build_s").set(build_s)
    return lib, path


def _resolve() -> tuple[ctypes.CDLL | None, str]:
    """Build or load once per process; rank threads arrive together."""
    global _state
    with _LOCK:
        if _state is None:
            try:
                _state = _build()
            except (OSError, subprocess.SubprocessError) as exc:
                detail = getattr(exc, "stderr", None) or b""
                _state = (None, f"{exc} {detail.decode(errors='replace')}".strip())
                metrics().counter("kernels.fallback").inc()
    return _state


def backend() -> tuple[str, str]:
    """``("c", library path)`` or ``("numpy", why no library loaded)``."""
    lib, detail = _state or _resolve()
    return ("c" if lib is not None else "numpy", detail)


def entry(name: str, *arrays: np.ndarray):
    """The C function ``name`` for the arrays' one float dtype, else ``None``.

    ``None`` — run the NumPy code — when the arrays mix dtypes, are not
    float32 / float64, or no library could be built.
    """
    suffix = _SUFFIX.get(arrays[0].dtype)
    if suffix is None or any(a.dtype != arrays[0].dtype for a in arrays[1:]):
        return None
    lib = (_state or _resolve())[0]
    return None if lib is None else getattr(lib, f"{name}_{suffix}")


def run(fn, out_shape: tuple[int, ...], dtype: np.dtype, *args) -> np.ndarray:
    """``fn(*args, out)`` into a fresh ``out`` of ``dtype``.

    Array arguments cross as addresses of C-contiguous data (copied if
    they were not), ints, floats and ``None`` as they are; an entry with
    more results than ``out`` writes the rest into fresh C-contiguous
    arrays passed among ``args``. The caller has checked every shape;
    the one thing left to C (a sweep's raw row pointer, the selection's
    segment lengths) is refused with status 1, raised here.
    """
    keep = [np.ascontiguousarray(a) if isinstance(a, np.ndarray) else a for a in args]
    out = np.empty(out_shape, dtype)
    if fn(*(a.ctypes.data if isinstance(a, np.ndarray) else a for a in keep),
          out.ctypes.data):
        name = fn.__name__[:-4]
        raise ValueError(f"{name}: {_REFUSED[name]}")
    return out
