#!/usr/bin/env python3
"""The toolchain tour: op DAGs, sparsity inference, fusion, execution.

Walks the paper's Figure-4 flow on the GAT attention operator:

1. write Psi as a DAG of Table-2 building blocks,
2. run sparsity inference — every n×n dense intermediate is flagged
   *virtual* (Section 6.1),
3. run the fusion pass — virtual chains ending in a sparse sampling
   collapse into SDDMM-like kernels (Section 6.2),
4. execute fused vs. tile-materialised and compare,
5. derive the *backward* DAG with reverse-mode autodiff (Section 5,
   derived instead of hand-written), print the joint forward+backward
   program with its fused kernels, and check the derived gradient
   against the compiled sweep's backward (``attention_backward``).

Also demonstrates the compile-time safety property: a DAG whose virtual
intermediate escapes sampling is *rejected*, instead of attempting an
n×n dense allocation at runtime.

Run:
    python examples/fusion_toolchain.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.fusion import (
    OpDag,
    ProgramRunner,
    Sparsity,
    build_vjp,
    execute,
    fuse,
    gat_psi_dag,
)
from repro.fusion.sparsity import infer_sparsity
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.tensor.kernels import sddmm_dot
from repro.tensor.megakernel import attention_backward, attention_forward


def main() -> None:
    dag = gat_psi_dag(slope=0.2)

    print("GAT Psi as an op DAG (Table-2 building blocks):")
    print(dag.pretty())

    sparsity = infer_sparsity(dag)
    virtuals = [n for n, s in sparsity.items() if s is Sparsity.VIRTUAL]
    print(f"\nsparsity inference: {len(virtuals)} virtual n x n "
          f"intermediates: {virtuals}")

    program = fuse(dag)
    print("\nfusion pass output:")
    for kernel in program.kernels:
        print(f"  {kernel.describe(dag)}")

    # Execute on a real graph.
    n, k = 4096, 32
    rng = np.random.default_rng(0)
    inputs = {
        "A": prepare_adjacency(erdos_renyi(n, 8 * n, seed=0)),
        "H": rng.normal(size=(n, k)),
        "W": 0.2 * rng.normal(size=(k, k)),
        "a_src": 0.2 * rng.normal(size=k),
        "a_dst": 0.2 * rng.normal(size=k),
    }
    start = time.perf_counter()
    fused = execute(program, inputs, mode="fused")
    fused_s = time.perf_counter() - start
    start = time.perf_counter()
    tiled = execute(program, inputs, mode="tiled", tile_rows=256)
    tiled_s = time.perf_counter() - start
    assert np.allclose(fused.data, tiled.data, rtol=1e-6, atol=1e-12)
    print(
        f"\nexecution on n={n}, nnz={inputs['A'].nnz}: "
        f"fused {fused_s * 1e3:.1f} ms vs tiled (unfused) "
        f"{tiled_s * 1e3:.1f} ms -> {tiled_s / fused_s:.1f}x from fusion"
    )

    # Reverse-mode autodiff: derive the backward DAG from the same
    # forward formulation, in the same IR.
    grad_program = build_vjp(
        gat_psi_dag(slope=0.2),
        wrt=("H", "W", "a_src", "a_dst"),
        seed_name="dS",
    )
    print("\njoint forward+backward program (derived, then fused):")
    print(grad_program.describe())

    runner = ProgramRunner(grad_program.dag, inputs, mode="fused")
    s = runner.run()  # forward: the attention matrix
    # A pretend upstream gradient: had Z = S Y been aggregated, an output
    # gradient dZ reaches the scores as dS = A ⊙ (dZ Y^T).
    y, dz = rng.normal(size=(2, n, k))
    ds = s.with_data(sddmm_dot(inputs["A"], dz, y))
    runner.bind("dS", ds)
    start = time.perf_counter()
    dw = runner.run("grad:W")  # reuses the cached forward activations
    backward_s = time.perf_counter() - start
    print(
        f"\nderived dW via grad:W in {backward_s * 1e3:.1f} ms, "
        f"|dW|_F = {np.linalg.norm(dw):.4f}"
    )

    # The same dS inside the fused sweep, which never materialises it: its
    # dU / dV exits chain through u = H W a, v = H W ā by hand.
    hp = inputs["H"] @ inputs["W"]
    ops = {"u": hp @ inputs["a_src"], "v": hp @ inputs["a_dst"], "slope": 0.2}
    _, stats = attention_forward(inputs["A"], "add", y, **ops)
    exits = attention_backward(inputs["A"], "add", y, dz, stats=stats, **ops)
    dhp = np.outer(exits["dU"], inputs["a_src"]) + np.outer(
        exits["dV"], inputs["a_dst"]
    )
    dw_sweep = inputs["H"].T @ dhp
    rel = np.max(np.abs(dw - dw_sweep)) / np.max(np.abs(dw_sweep))
    print(f"matches the compiled sweep's Section-5 backward to {rel:.2e}")
    assert rel < 1e-8

    # Compile-time rejection of an escaping virtual.
    bad = OpDag()
    h = bad.input("H", "nk")
    gram = bad.matmul(h, bad.transpose(h))  # virtual n x n
    bad.set_output(bad.matmul(gram, h))     # consumes the dense!
    try:
        fuse(bad)
    except ValueError as error:
        print(f"\nescaping virtual rejected at compile time:\n  {error}")
    else:  # pragma: no cover
        raise AssertionError("the bad DAG should have been rejected")


if __name__ == "__main__":
    main()
