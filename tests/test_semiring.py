"""Tests for the semiring algebra of Section 4.3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.semiring import (
    AVERAGE,
    REAL,
    TROPICAL_MAX,
    TROPICAL_MIN,
    Semiring,
    adjacency_values,
    semiring_matmul_dense,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
positive = st.floats(min_value=0.1, max_value=50, allow_nan=False)


class TestScalarSemiringLaws:
    """Monoid laws for the ufunc-backed semirings."""

    @pytest.mark.parametrize("sr", [REAL, TROPICAL_MIN, TROPICAL_MAX])
    @given(a=finite, b=finite, c=finite)
    @settings(max_examples=40, deadline=None)
    def test_add_associative_commutative(self, sr: Semiring, a, b, c):
        assert np.isclose(sr.add(sr.add(a, b), c), sr.add(a, sr.add(b, c)))
        assert np.isclose(sr.add(a, b), sr.add(b, a))

    @pytest.mark.parametrize("sr", [REAL, TROPICAL_MIN, TROPICAL_MAX])
    @given(a=finite)
    @settings(max_examples=40, deadline=None)
    def test_identities(self, sr: Semiring, a):
        assert np.isclose(sr.add(a, sr.zero), a)
        assert np.isclose(sr.mul(a, sr.one), a)

    @pytest.mark.parametrize("sr", [REAL, TROPICAL_MIN, TROPICAL_MAX])
    @given(a=finite, b=finite, c=finite)
    @settings(max_examples=40, deadline=None)
    def test_mul_distributes_over_add(self, sr: Semiring, a, b, c):
        left = sr.mul(a, sr.add(b, c))
        right = sr.add(sr.mul(a, b), sr.mul(a, c))
        assert np.isclose(left, right)


class TestAdjacencyLifting:
    def test_real_passthrough(self):
        w = np.array([1.0, 2.0])
        assert np.array_equal(adjacency_values(REAL, w), w)

    @pytest.mark.parametrize("sr", [TROPICAL_MIN, TROPICAL_MAX])
    def test_tropical_uses_mul_identity(self, sr):
        out = adjacency_values(sr, np.array([1.0, 5.0]))
        assert np.all(out == sr.one)


class TestDenseOracle:
    def test_real_matches_numpy(self, rng):
        a = (rng.random((5, 5)) < 0.5) * rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 3))
        assert np.allclose(semiring_matmul_dense(REAL, a, b), a @ b)

    def test_tropical_min_is_neighbourhood_min(self, rng):
        # Adjacency in tropical form: stored entries = 0, absent = inf.
        mask = rng.random((6, 6)) < 0.5
        a = np.where(mask, 0.0, np.inf)
        b = rng.normal(size=(6, 2))
        out = semiring_matmul_dense(TROPICAL_MIN, a, b)
        for i in range(6):
            nz = np.nonzero(mask[i])[0]
            if nz.size:
                assert np.allclose(out[i], b[nz].min(axis=0))

    def test_average_is_weighted_average(self, rng):
        a = (rng.random((5, 5)) < 0.6) * rng.uniform(0.5, 2.0, (5, 5))
        b = rng.normal(size=(5, 3))
        out = semiring_matmul_dense(AVERAGE, a, b)
        for i in range(5):
            nz = np.nonzero(a[i])[0]
            if nz.size:
                w = a[i, nz]
                assert np.allclose(out[i], (w[:, None] * b[nz]).sum(0) / w.sum())


class TestConstruction:
    def test_scalar_semiring_requires_ufuncs(self):
        with pytest.raises(ValueError):
            Semiring("broken", None, None, 0.0, 1.0)
