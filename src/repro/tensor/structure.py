"""Pattern-interned CSR structure cache.

The paper's central observation (Sections 6.1–6.2) is that every
attention matrix :math:`\\Psi(\\mathcal{A}, H)` shares the sparsity
pattern of the adjacency :math:`\\mathcal{A}`. Structural quantities —
the COO row vector (``expand_rows``), per-row lengths, the transpose
permutation, the transposed pattern itself and the scipy CSR view —
therefore depend only on ``(indptr, indices, shape)`` and can be
computed *once per pattern per process* instead of once per kernel
call. This module provides that cache:

* :class:`PatternStructure` memoizes every derived quantity lazily.
* Structures are **interned**: all CSR matrices built from the same
  ``indptr``/``indices`` array objects (``with_data``, ``astype``)
  share one :class:`PatternStructure`, looked up by
  array identity in a weak registry.
* Structure arrays are frozen (``writeable = False``) on registration,
  so a cached quantity can never be invalidated by mutation; ``data``
  stays writable and is never cached here.
* The transpose is built with an O(nnz) counting sort (delegated to
  scipy's C ``csr -> csc`` conversion) instead of an O(nnz log nnz)
  ``argsort``, and carries a back-link: the transpose of a transposed
  pattern is the original object, with the inverse permutation derived
  by a single scatter.

Cache/compute events are counters in the :func:`repro.obs.metrics`
registry under the labels ``pattern.*``, ``expand_rows.*``,
``row_lengths.*``, ``max_row.*``, ``transpose_perm.*`` and
``scipy_view.*`` so tests can assert the amortization actually happens.
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

from repro.obs.metrics import metrics

__all__ = [
    "PatternStructure",
    "intern_structure",
    "lookup_structure",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class PatternStructure:
    """Memoized structural quantities of one CSR sparsity pattern.

    Holds strong references to the (frozen) ``indptr``/``indices``
    arrays; all derived arrays are frozen too, so they can be returned
    without defensive copies.
    """

    __slots__ = (
        "indptr",
        "indices",
        "shape",
        "_row_lengths",
        "_max_row",
        "_expand_rows",
        "_tperm",
        "_transpose",
        "_scipy_proto",
        "_sampling_graph",
        "__weakref__",
    )

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.shape = shape
        self._row_lengths: np.ndarray | None = None
        self._max_row: int | None = None
        self._expand_rows: np.ndarray | None = None
        self._tperm: np.ndarray | None = None
        self._transpose: "PatternStructure | None" = None
        self._scipy_proto = None
        #: Interned :class:`repro.tensor.sampling_graph.SamplingGraph`
        #: (built lazily by ``sampling_graph_of``; structural only, so
        #: it is shared by every same-pattern matrix like the rest of
        #: the cache).
        self._sampling_graph = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PatternStructure(shape={self.shape}, nnz={self.indices.shape[0]})"

    # ------------------------------------------------------------------
    # Lazily-cached structural quantities
    # ------------------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Stored entries per row (read-only, cached)."""
        out = self._row_lengths
        if out is None:
            out = _freeze(np.diff(self.indptr))
            self._row_lengths = out
            metrics().counter("row_lengths.computed").inc()
        else:
            metrics().counter("row_lengths.hit").inc()
        return out

    def max_row_length(self) -> int:
        """Entries in the longest row, 0 without rows (cached): the sweep's
        scratch size. Events: ``max_row.computed`` / ``max_row.hit``."""
        out = self._max_row
        if out is None:
            lengths = self.row_lengths()
            out = self._max_row = int(lengths.max()) if lengths.size else 0
            metrics().counter("max_row.computed").inc()
        else:
            metrics().counter("max_row.hit").inc()
        return out

    def expand_rows(self) -> np.ndarray:
        """Row index of every stored entry (read-only, cached)."""
        out = self._expand_rows
        if out is None:
            out = _freeze(
                np.repeat(
                    np.arange(self.shape[0], dtype=np.int64),
                    self.row_lengths(),
                )
            )
            self._expand_rows = out
            metrics().counter("expand_rows.computed").inc()
        else:
            metrics().counter("expand_rows.hit").inc()
        return out

    def transpose_permutation(self) -> np.ndarray:
        """Permutation mapping this pattern's entries to transpose order."""
        out = self._tperm
        if out is None:
            other = self._transpose
            if other is not None and other._tperm is not None:
                # This structure was created *as* someone's transpose:
                # its permutation is the inverse of the original's.
                inv = np.empty_like(other._tperm)
                inv[other._tperm] = np.arange(inv.shape[0], dtype=np.int64)
                out = _freeze(inv)
                self._tperm = out
                metrics().counter("transpose_perm.computed").inc()
            else:
                self._build_transpose()
                out = self._tperm
        else:
            metrics().counter("transpose_perm.hit").inc()
        return out

    def transpose(self) -> "PatternStructure":
        """The transposed pattern's structure (cached, back-linked)."""
        if self._transpose is None:
            self._build_transpose()
        return self._transpose

    def _build_transpose(self) -> None:
        indptr_t, indices_t, perm = _transpose_arrays(
            self.indptr, self.indices, self.shape
        )
        self._tperm = _freeze(perm)
        metrics().counter("transpose_perm.computed").inc()
        t = intern_structure(
            indptr_t, indices_t, (self.shape[1], self.shape[0])
        )
        t._transpose = self
        self._transpose = t

    # ------------------------------------------------------------------
    # scipy view
    # ------------------------------------------------------------------
    def scipy_view(self, data: np.ndarray):
        """A ``scipy.sparse.csr_matrix`` over this pattern with ``data``.

        The first call builds a prototype (paying scipy's validation and
        index-dtype downcast once per pattern); later calls shallow-copy
        the prototype and swap in ``data``, sharing the index buffers.
        """
        import scipy.sparse as sp

        proto = self._scipy_proto
        if proto is None:
            proto = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=self.shape
            )
            self._scipy_proto = proto
            metrics().counter("scipy_view.built").inc()
        else:
            metrics().counter("scipy_view.hit").inc()
        view = copy.copy(proto)
        view.data = data
        return view


def _transpose_arrays(
    indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """O(nnz) counting-sort transpose of a CSR pattern.

    Returns ``(indptr_t, indices_t, perm)`` where ``perm`` maps
    transpose-order entries back to original entry positions. The
    counting sort is scipy's C ``csr -> csc`` conversion applied to the
    entry ordinals; it is stable, so within each column the original
    row order is preserved (matching the old stable ``argsort``).
    """
    n_rows, n_cols = shape
    nnz = int(indices.shape[0])
    if nnz == 0:
        return (
            np.zeros(n_cols + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover - scipy is a hard test dep
        key = indices * np.int64(n_rows) + np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(indptr)
        )
        perm = np.argsort(key, kind="stable")
        indptr_t = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr_t, indices + 1, 1)
        np.cumsum(indptr_t, out=indptr_t)
        indices_t = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(indptr)
        )[perm]
        return indptr_t, indices_t, perm
    csc = sp.csr_matrix(
        (np.arange(nnz, dtype=np.int64), indices, indptr), shape=shape
    ).tocsc()
    return (
        csc.indptr.astype(np.int64, copy=False),
        csc.indices.astype(np.int64, copy=False),
        np.ascontiguousarray(csc.data, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Interning registry
# ----------------------------------------------------------------------
# Keyed by the identity of the index arrays: every matrix derived from a
# pattern via with_data/astype/scale_* shares the *same* array objects,
# so identity lookup is exact. The registry holds weak references to the
# structures while each structure holds strong references to its arrays,
# so a key's ids cannot be recycled while its entry is alive; identity
# is re-verified on hit regardless.
_REGISTRY: "weakref.WeakValueDictionary[tuple, PatternStructure]" = (
    weakref.WeakValueDictionary()
)


def lookup_structure(
    indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
) -> PatternStructure | None:
    """Find the interned structure for these exact array objects."""
    entry = _REGISTRY.get((id(indptr), id(indices), shape))
    if (
        entry is not None
        and entry.indptr is indptr
        and entry.indices is indices
    ):
        metrics().counter("pattern.hit").inc()
        return entry
    return None


def intern_structure(
    indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]
) -> PatternStructure:
    """Intern (or fetch) the structure for validated index arrays.

    Freezes both arrays; the caller guarantees they describe a valid
    CSR pattern for ``shape``.
    """
    found = lookup_structure(indptr, indices, shape)
    if found is not None:
        return found
    _freeze(indptr)
    _freeze(indices)
    structure = PatternStructure(indptr, indices, shape)
    _REGISTRY[(id(indptr), id(indices), shape)] = structure
    metrics().counter("pattern.registered").inc()
    return structure
