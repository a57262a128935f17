"""Property tests for the pattern-interned structure cache.

Two families of guarantees:

* **Bit identity** — a matrix carrying warm structural caches produces
  bit-identical results to a cold one (fresh index arrays, empty
  caches) for every same-pattern operation and structural transform.
* **Immutability** — structure arrays and cached structural quantities
  are read-only, and mutating the (writable) ``data`` vector can never
  invalidate them.

Plus the amortization guarantee of the perf PR: in a multi-layer GAT
training run, ``expand_rows`` and the transpose permutation are
computed at most once per pattern per process.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import erdos_renyi, synthetic_classification
from repro.graphs.prep import prepare_adjacency
from repro.models import build_model
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer, install_tracer
from repro.tensor.csr import CSRMatrix
from repro.tensor.structure import lookup_structure

from tests.conftest import random_csr


def cold_copy(m: CSRMatrix) -> CSRMatrix:
    """Rebuild ``m`` from fresh arrays: new structure, empty caches."""
    return CSRMatrix(
        m.indptr.copy(), m.indices.copy(), m.data.copy(), m.shape
    )


def assert_same_matrix(a: CSRMatrix, b: CSRMatrix) -> None:
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.dtype == b.data.dtype
    assert np.array_equal(a.data, b.data)


class TestWarmColdBitIdentity:
    """Warm structural caches never change any result, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=12),
        density=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_operations_match_cold(self, n, m, density, seed):
        rng = np.random.default_rng(seed)
        warm = random_csr(rng, n, m, density=density, ensure_empty_row=True)
        # Warm up every structural cache before comparing.
        warm.expand_rows()
        warm.row_lengths()
        warm.transpose_permutation()
        cold = cold_copy(warm)
        assert cold.structure is not warm.structure

        assert np.array_equal(warm.expand_rows(), cold.expand_rows())
        assert np.array_equal(warm.row_lengths(), cold.row_lengths())
        assert np.array_equal(
            warm.transpose_permutation(), cold.transpose_permutation()
        )
        assert_same_matrix(warm.transpose(), cold.transpose())
        assert_same_matrix(
            warm.transpose().transpose(), cold.transpose().transpose()
        )

        values = rng.normal(size=warm.nnz)
        assert_same_matrix(warm.with_data(values), cold.with_data(values))

        rf = rng.normal(size=n)
        cf = rng.normal(size=m)
        assert_same_matrix(warm.scale_rows(rf), cold.scale_rows(rf))
        assert_same_matrix(warm.scale_cols(cf), cold.scale_cols(cf))
        assert np.array_equal(warm.row_sum(), cold.row_sum())
        assert np.array_equal(warm.col_sum(), cold.col_sum())

        r0, r1 = 0, max(1, n // 2)
        c0, c1 = 0, max(1, m // 2)
        assert_same_matrix(
            warm.extract_block(r0, r1, c0, c1),
            cold.extract_block(r0, r1, c0, c1),
        )
        k = min(n, m)
        verts = np.arange(k, dtype=np.int64)
        assert_same_matrix(
            warm.extract_submatrix(verts), cold.extract_submatrix(verts)
        )

    def test_to_scipy_matches_cold(self, rng):
        warm = random_csr(rng, 9, 7, density=0.3)
        warm.to_scipy()  # build the prototype
        cold = cold_copy(warm)
        sw, sc = warm.to_scipy(), cold.to_scipy()
        assert np.array_equal(sw.toarray(), sc.toarray())
        # Clones of the same pattern share index buffers, never data.
        again = warm.to_scipy()
        assert again.indices is sw.indices
        assert again.data is warm.data


class TestStructureImmutability:
    """Structural arrays are frozen; ``data`` stays writable."""

    def test_structure_arrays_read_only(self, rng):
        csr = random_csr(rng, 8, 8, density=0.3)
        for arr in (
            csr.indptr,
            csr.indices,
            csr.expand_rows(),
            csr.row_lengths(),
            csr.transpose_permutation(),
        ):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert csr.data.flags.writeable

    def test_data_mutation_cannot_invalidate_structure(self, rng):
        csr = random_csr(rng, 10, 10, density=0.25)
        rows = csr.expand_rows()
        perm = csr.transpose_permutation()
        lengths = csr.row_lengths()
        csr.data[:] = -1.0
        assert csr.expand_rows() is rows
        assert csr.transpose_permutation() is perm
        assert csr.row_lengths() is lengths
        # The mutated values flow through same-pattern ops correctly.
        assert np.array_equal(
            csr.transpose().data, np.full(csr.nnz, -1.0)[perm]
        )

    def test_interning_shares_structure(self, rng):
        csr = random_csr(rng, 8, 6, density=0.3)
        derived = csr.with_data(np.ones(csr.nnz))
        assert derived.structure is csr.structure
        assert derived.indptr is csr.indptr
        assert derived.indices is csr.indices
        assert csr.scale_rows(np.ones(8)).structure is csr.structure
        assert csr.astype(np.float32).structure is csr.structure
        # Registry lookup by array identity finds the same object.
        assert (
            lookup_structure(csr.indptr, csr.indices, csr.shape)
            is csr.structure
        )

    def test_transpose_back_link(self, rng):
        csr = random_csr(rng, 7, 9, density=0.3)
        t = csr.transpose()
        back = t.transpose()
        # Double transpose returns to the *same* structure and arrays.
        assert back.structure is csr.structure
        assert back.indptr is csr.indptr
        assert back.indices is csr.indices
        assert np.array_equal(back.data, csr.data)
        # Inverse permutations compose to the identity.
        p, q = csr.transpose_permutation(), t.transpose_permutation()
        assert np.array_equal(p[q], np.arange(csr.nnz))


class TestDegreeStats:
    """Property tests for the cached row-length summary statistics."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=24),
        m=st.integers(min_value=1, max_value=24),
        density=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_consistent_with_row_lengths(self, n, m, density, seed):
        rng = np.random.default_rng(seed)
        csr = random_csr(rng, max(n, 1), m, density=density,
                         ensure_empty_row=True)
        stats = csr.degree_stats()
        lengths = csr.row_lengths().astype(np.float64)
        assert stats.n_rows == csr.shape[0]
        assert stats.nnz == csr.nnz
        assert stats.max == int(lengths.max())
        assert stats.mean == pytest.approx(float(lengths.mean()))
        assert stats.std == pytest.approx(float(lengths.std()))
        expected_cv = float(lengths.std() / lengths.mean()) if \
            lengths.mean() > 0 else 0.0
        assert stats.cv == pytest.approx(expected_cv)
        assert stats.empty_rows == int(np.count_nonzero(lengths == 0))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        density=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_histogram_buckets(self, n, density, seed):
        rng = np.random.default_rng(seed)
        csr = random_csr(rng, n, n, density=density, ensure_empty_row=True)
        stats = csr.degree_stats()
        hist = stats.histogram
        # Every row lands in exactly one power-of-two bucket …
        assert sum(hist) == stats.n_rows
        # … bucket 0 holds exactly the empty rows …
        assert hist[0] == stats.empty_rows
        # … and bucket b >= 1 counts rows with length in [2^(b-1), 2^b).
        lengths = csr.row_lengths()
        for b in range(1, len(hist)):
            lo, hi = 1 << (b - 1), 1 << b
            assert hist[b] == int(
                np.count_nonzero((lengths >= lo) & (lengths < hi))
            )

    def test_warm_equals_cold_and_caches(self, rng):
        warm = random_csr(rng, 16, 16, density=0.3, ensure_empty_row=True)
        base = metrics().counters()
        first = warm.degree_stats()
        again = warm.degree_stats()
        assert again is first  # memoised on the structure
        cold = cold_copy(warm)
        assert cold.degree_stats() == first  # value-equal, fresh cache
        after = metrics().counters()
        computed = after.get("degree_stats.computed", 0) - base.get(
            "degree_stats.computed", 0
        )
        hits = after.get("degree_stats.hit", 0) - base.get(
            "degree_stats.hit", 0
        )
        assert computed == 2  # once per structure (warm + cold)
        assert hits == 1
        # Same-pattern derivatives share the cached stats object.
        assert warm.with_data(np.ones(warm.nnz)).degree_stats() is first

    def test_scramble_if_skewed_uses_stats(self):
        from repro.graphs.reorder import scramble_if_skewed

        # Near-regular ER graph: no scramble recommended.
        regular = prepare_adjacency(
            erdos_renyi(60, 600, seed=4), dtype=np.float64
        )
        assert scramble_if_skewed(regular, cv_threshold=1.0) is None
        # One hub row connected to everything: heavy skew.
        dense = np.zeros((64, 64))
        dense[0, :] = 1.0
        dense[np.arange(64), np.arange(64)] = 1.0
        skewed = CSRMatrix.from_dense(dense)
        order = scramble_if_skewed(skewed, cv_threshold=1.0)
        assert order is not None
        assert np.array_equal(np.sort(order), np.arange(64))


class TestAmortization:
    """Structural quantities are computed at most once per pattern."""

    def test_gat_training_computes_structure_once(self, kernels_backend):
        data = synthetic_classification(n=80, feature_dim=8, seed=1)
        a = prepare_adjacency(
            erdos_renyi(80, 600, seed=2), dtype=np.float64
        )
        h = data.features.astype(np.float64)
        model = build_model("gat", 8, 16, data.num_classes, num_layers=3, seed=0)

        def epoch():
            out = model.forward(a, h, training=True)
            model.backward(np.ones_like(out) / out.size)

        epoch()  # warm every structural cache
        base = metrics().counters()
        for _ in range(3):
            epoch()
        after = metrics().counters()

        def delta(label):
            return after.get(label, 0) - base.get(label, 0)

        # Nothing structural is ever recomputed after the first epoch …
        assert delta("expand_rows.computed") == 0
        assert delta("row_lengths.computed") == 0
        assert delta("transpose_perm.computed") == 0
        assert delta("pattern.registered") == 0
        # … while the hot path keeps hitting the caches. (There is no
        # ``pattern.hit`` assertion: same-pattern constructors go through
        # ``_from_structure`` and skip the registry lookup entirely.)
        # The COO row vector is the NumPy kernels' gather index and the
        # transpose their backward's; the compiled sweep asks for neither
        # (column-side gradients scatter directly).
        assert (delta("expand_rows.hit") > 0) == (kernels_backend == "numpy")
        assert (delta("transpose_perm.hit") > 0) == (kernels_backend == "numpy")

    @pytest.mark.parametrize("name", ["agnn", "gat"])
    def test_cold_pattern_builds_no_rows_on_c(self, name, kernels_backend):
        """Every sampled or served block is a cold pattern: a forward
        and backward over one builds the ``nnz``-long row vector and the
        transposed pattern once where NumPy goes through them, and neither
        on the C side — each layer is two sweeps and no unfused kernel."""
        a = prepare_adjacency(erdos_renyi(70, 400, seed=9), dtype=np.float64)
        h = np.random.default_rng(1).normal(size=(70, 6))
        model = build_model(name, 6, 8, 3, num_layers=2, seed=0,
                            dtype=np.float64)
        numpy_side = kernels_backend == "numpy"
        rows = metrics().counter("expand_rows.computed")
        transposes = metrics().counter("transpose_perm.computed")
        base = rows.value, transposes.value
        tracer = Tracer()
        install_tracer(tracer)
        try:
            out = model.forward(a, h, training=True)
            assert rows.value - base[0] == numpy_side
            model.backward(np.ones_like(out) / out.size)
        finally:
            install_tracer(None)
        assert rows.value - base[0] == numpy_side
        assert transposes.value - base[1] == numpy_side
        sweeps = [s for s in tracer.spans if s.name.startswith("megakernel.")]
        assert [s.name for s in sweeps] == (
            ["megakernel.forward"] * 2 + ["megakernel.backward"] * 2
        )
        assert {s.attrs["backend"] for s in sweeps} == {kernels_backend}
        unfused = [s.name for s in tracer.spans if s.name.startswith(
            ("kernel.sddmm_", "kernel.masked_row_softmax"))]
        assert bool(unfused) == numpy_side, unfused

    def test_first_epoch_computes_at_most_once_per_pattern(self):
        a = prepare_adjacency(erdos_renyi(50, 300, seed=5), dtype=np.float64)
        h = np.random.default_rng(0).normal(size=(50, 6))
        model = build_model("gat", 6, 8, 3, num_layers=3, seed=0)
        base = metrics().counters()
        out = model.forward(a, h, training=True)
        model.backward(np.ones_like(out) / out.size)
        after = metrics().counters()
        # Patterns in play: the adjacency and (lazily) its transpose.
        registered = after.get("pattern.registered", 0) - base.get(
            "pattern.registered", 0
        )
        assert registered <= 2
        for label in (
            "expand_rows.computed",
            "row_lengths.computed",
            "transpose_perm.computed",
        ):
            assert after.get(label, 0) - base.get(label, 0) <= 2
