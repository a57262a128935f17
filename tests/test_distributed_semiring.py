"""Distributed semiring aggregation (Section 4.3 on the 1.5D grid)."""

import numpy as np
import pytest

from repro.distributed.ops import (
    OpSequencer,
    distributed_semiring_aggregate,
)
from repro.distributed.partition import (
    block_range,
    distribute_adjacency,
    distribute_features,
)
from repro.runtime import run_spmd, square_grid
from repro.tensor.kernels import spmm_reference
from repro.tensor.semiring import (
    AVERAGE,
    REAL,
    TROPICAL_MAX,
    TROPICAL_MIN,
    adjacency_values,
)
from tests.conftest import random_csr


@pytest.mark.parametrize("semiring", [REAL, TROPICAL_MIN, TROPICAL_MAX],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("p", [1, 4, 9])
def test_matches_single_node(rng, semiring, p):
    n, k = 19, 3
    a = random_csr(rng, n, n, density=0.4)
    lifted = a.with_data(adjacency_values(semiring, a.data))
    h = rng.normal(size=(n, k))
    reference = spmm_reference(lifted, h, semiring=semiring)

    def program(comm):
        grid = square_grid(comm)
        a_block = distribute_adjacency(lifted, grid)
        h_block = distribute_features(h, grid)
        out = distributed_semiring_aggregate(
            grid, a_block, h_block, semiring, OpSequencer()
        )
        c0, c1 = block_range(n, grid.py, grid.col)
        assert np.allclose(out, reference[c0:c1]), (
            grid.row, grid.col, np.abs(out - reference[c0:c1]).max()
        )
        return True

    assert all(run_spmd(p, program, timeout=30).values)


def test_average_semiring_rejected():
    def program(comm):
        grid = square_grid(comm)
        a = random_csr(np.random.default_rng(0), 8, 8)
        h = np.ones((8, 2))
        with pytest.raises(NotImplementedError):
            distributed_semiring_aggregate(
                grid, distribute_adjacency(a, grid),
                distribute_features(h, grid), AVERAGE, OpSequencer(),
            )
        return True

    assert all(run_spmd(4, program, timeout=20).values)


def test_empty_rows_carry_identity(rng):
    """Rows with no stored entries anywhere must end at the semiring
    identity after the distributed reduction."""
    n, k = 12, 2
    a = random_csr(rng, n, n, density=0.3, ensure_empty_row=True)
    # Force a globally empty row.
    import numpy as np
    dense = a.to_dense()
    dense[5, :] = 0
    from repro.tensor.csr import CSRMatrix

    a = CSRMatrix.from_dense(dense)
    lifted = a.with_data(adjacency_values(TROPICAL_MIN, a.data))
    h = rng.normal(size=(n, k))
    reference = spmm_reference(lifted, h, semiring=TROPICAL_MIN)
    assert np.all(np.isinf(reference[5]))

    def program(comm):
        grid = square_grid(comm)
        out = distributed_semiring_aggregate(
            grid,
            distribute_adjacency(lifted, grid),
            distribute_features(h, grid),
            TROPICAL_MIN,
            OpSequencer(),
        )
        c0, c1 = block_range(n, grid.py, grid.col)
        assert np.allclose(out, reference[c0:c1])
        return True

    assert all(run_spmd(4, program, timeout=20).values)
