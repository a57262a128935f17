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
  ``indptr``/``indices`` array objects (``with_data``, ``astype``,
  ``scale_rows``, …) share one :class:`PatternStructure`, looked up by
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
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import metrics

__all__ = [
    "DegreeStats",
    "PatternStructure",
    "intern_structure",
    "lookup_structure",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary statistics of a pattern's row lengths (out-degrees).

    The coefficient of variation separates near-uniform patterns from
    skewed/power-law ones, and the histogram makes the shape of the tail
    inspectable — the reordering diagnostics of :mod:`repro.graphs.reorder`.
    """

    n_rows: int
    nnz: int
    max: int
    mean: float
    std: float
    cv: float  #: std / mean; 0.0 for empty patterns
    empty_rows: int
    #: ``histogram[0]`` counts empty rows; ``histogram[b]`` (b >= 1)
    #: counts rows with length in ``[2**(b-1), 2**b)``.
    histogram: tuple[int, ...]


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
        "_head_cache",
        "_degree_stats",
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
        self._head_cache: dict[int, list] = {}
        self._degree_stats: DegreeStats | None = None
        #: Interned :class:`repro.tensor.sampling_graph.SamplingGraph`
        #: (built lazily by ``sampling_graph_of``; structural only, so
        #: it is shared by every same-pattern matrix like the rest of
        #: the cache).
        self._sampling_graph = None

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PatternStructure(shape={self.shape}, nnz={self.nnz})"

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

    def degree_stats(self) -> DegreeStats:
        """Row-length summary statistics (cached per pattern).

        Derived once from :meth:`row_lengths` for the reordering
        diagnostics (the megakernel reads :meth:`max_row_length`).
        Events: ``degree_stats.computed`` / ``degree_stats.hit``.
        """
        out = self._degree_stats
        if out is None:
            lengths = self.row_lengths()
            n = int(lengths.shape[0])
            nnz = self.nnz
            if n == 0:
                hist: tuple[int, ...] = ()
                mx, mean, std = 0, 0.0, 0.0
                empty = 0
            else:
                # Bucket b >= 1 holds lengths in [2**(b-1), 2**b);
                # frexp's exponent is exactly bit_length for ints > 0
                # and 0 for length-0 rows.
                buckets = np.frexp(lengths.astype(np.float64))[1]
                hist = tuple(int(c) for c in np.bincount(buckets))
                mx = int(lengths.max())
                mean = float(lengths.mean())
                std = float(lengths.std())
                empty = int(np.count_nonzero(lengths == 0))
            out = DegreeStats(
                n_rows=n,
                nnz=nnz,
                max=mx,
                mean=mean,
                std=std,
                cv=(std / mean) if mean > 0 else 0.0,
                empty_rows=empty,
                histogram=hist,
            )
            self._degree_stats = out
            metrics().counter("degree_stats.computed").inc()
        else:
            metrics().counter("degree_stats.hit").inc()
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

    # ------------------------------------------------------------------
    # Head-interleaved pattern (batched multi-head kernels)
    # ------------------------------------------------------------------
    def head_interleave(self, heads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The head-interleaved expansion of this pattern, cached per ``heads``.

        For stacked edge values of shape ``(nnz, heads)`` the batched
        real-semiring SpMM runs as **one** sparse product over an
        ``(n·heads) x (m·heads)`` block-diagonal-per-entry pattern: row
        ``r·heads + h`` holds row ``r``'s entries at columns
        ``c·heads + h``, so every head's aggregation happens in a single
        CSR sweep. Returns ``(indptr_x, indices_x, perm)`` where
        ``perm`` gathers the expanded entry values from the C-order
        ravel of the stacked ``(nnz, heads)`` data
        (``perm[i] = e_i * heads + h_i``). All three arrays are frozen.
        """
        heads = int(heads)
        if heads < 1:
            raise ValueError("heads must be >= 1")
        cache = self._head_cache.get(heads)
        if cache is None:
            n = self.shape[0]
            lengths = self.row_lengths()
            lengths_x = np.repeat(lengths, heads)
            indptr_x = np.zeros(n * heads + 1, dtype=np.int64)
            np.cumsum(lengths_x, out=indptr_x[1:])
            total = self.nnz * heads
            if total:
                # Ragged-range gather: block b = (r, h) spans entries
                # indptr[r] + j for j < lengths[r].
                starts_x = np.repeat(self.indptr[:-1], heads)
                e = np.repeat(starts_x - indptr_x[:-1], lengths_x)
                e += np.arange(total, dtype=np.int64)
                h = np.repeat(
                    np.tile(np.arange(heads, dtype=np.int64), n), lengths_x
                )
            else:
                e = np.empty(0, dtype=np.int64)
                h = np.empty(0, dtype=np.int64)
            cache = [
                _freeze(indptr_x),
                _freeze(self.indices[e] * heads + h),
                _freeze(e * heads + h),
                None,  # scipy prototype, built lazily
            ]
            self._head_cache[heads] = cache
            metrics().counter("head_interleave.computed").inc()
        else:
            metrics().counter("head_interleave.hit").inc()
        return cache[0], cache[1], cache[2]

    def head_scipy_view(self, heads: int, data_x: np.ndarray):
        """Scipy CSR view over the head-interleaved pattern.

        ``data_x`` must already be in interleaved entry order (gathered
        through the ``perm`` of :meth:`head_interleave`). Prototype
        construction (scipy validation + index downcast) is paid once
        per ``(pattern, heads)`` pair, like :meth:`scipy_view`.
        """
        import scipy.sparse as sp

        indptr_x, indices_x, _ = self.head_interleave(heads)
        cache = self._head_cache[heads]
        proto = cache[3]
        if proto is None:
            proto = sp.csr_matrix(
                (data_x, indices_x, indptr_x),
                shape=(self.shape[0] * heads, self.shape[1] * heads),
            )
            cache[3] = proto
            metrics().counter("head_scipy_view.built").inc()
        else:
            metrics().counter("head_scipy_view.hit").inc()
        view = copy.copy(proto)
        view.data = data_x
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
