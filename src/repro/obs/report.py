"""Trace-and-profile reporter: run a named case, export its timeline.

Runs one of the small named training cases under span tracing and
writes the Perfetto-loadable Chrome trace plus a flat span profile
(JSON + CSV), printing the top-spans table and a flop reconciliation
line — the span-boundary FlopCounter deltas must add up to exactly the
standalone counter totals, or the tracer is lying::

    REPRO_TRACE=1 PYTHONPATH=src python -m repro.obs.report \
        --case distributed --out-dir benchmarks/results/obs

Cases:

``fullbatch``
    The full-batch :class:`~repro.training.trainer.Trainer` on a small
    ER graph — driver-only timeline (epoch, layer, kernel spans).
``minibatch``
    The serial :class:`~repro.training.minibatch.MinibatchTrainer` —
    adds per-batch sample/train.step spans.
``distributed``
    :func:`~repro.distributed.api.distributed_train` at ``p = 4`` on
    the same problem — one Perfetto track per rank; each rank's
    schedule step and transfer spans interleave with its wait slices.

The command refuses to run without ``REPRO_TRACE=1``: silently
producing an empty trace would be worse than failing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.config import TRACE_ENV_VAR, trace_enabled_default
from repro.graphs import erdos_renyi
from repro.graphs.prep import prepare_adjacency
from repro.obs.export import (
    format_top_spans,
    profile_spans,
    write_chrome_trace,
    write_profile_csv,
    write_profile_json,
)
from repro.obs.tracer import Tracer, install_tracer
from repro.util.counters import FlopCounter
from repro.util.rng import make_rng

__all__ = ["run_case", "main"]

#: Small-but-not-trivial shared problem (matches the test-scale graphs).
_CASE = {
    "n": 256,
    "m": 2048,
    "k": 16,
    "classes": 4,
    "layers": 2,
    "epochs": 2,
    "batch_size": 64,
    "seed": 7,
}

CASES = ("fullbatch", "minibatch", "distributed")


def _problem() -> tuple[Any, np.ndarray, np.ndarray]:
    a = prepare_adjacency(
        erdos_renyi(_CASE["n"], _CASE["m"], seed=_CASE["seed"]),
        dtype=np.float64,
    )
    rng = make_rng(_CASE["seed"] + 1)
    features = rng.normal(size=(_CASE["n"], _CASE["k"])).astype(np.float64)
    labels = rng.integers(0, _CASE["classes"], size=_CASE["n"])
    return a, features, labels


def _run_driver(
    case: str, model_name: str
) -> tuple[list[Tracer], dict[str, Any]]:
    """The single-process cases: one driver tracer around ``fit``."""
    from repro.models import build_model
    from repro.training import (
        SGD,
        MinibatchTrainer,
        SoftmaxCrossEntropyLoss,
        Trainer,
    )

    a, features, labels = _problem()
    model = build_model(
        model_name, _CASE["k"], _CASE["k"], _CASE["classes"],
        num_layers=_CASE["layers"], seed=_CASE["seed"],
    )
    loss, optimizer = SoftmaxCrossEntropyLoss(), SGD(lr=0.01)
    if case == "fullbatch":
        trainer, fit_kwargs = Trainer(model, loss, optimizer), {}
    else:
        trainer = MinibatchTrainer(
            model, loss, optimizer, fanouts=(None,) * _CASE["layers"],
            batch_size=_CASE["batch_size"], seed=_CASE["seed"],
        )
        fit_kwargs = {"full_eval": False}
    counter = FlopCounter()
    driver = Tracer(rank=0)
    install_tracer(driver)
    try:
        with driver.span("driver.run", counter=counter, case=case):
            result = trainer.fit(
                a, features, labels, epochs=_CASE["epochs"],
                counter=counter, **fit_kwargs,
            )
    finally:
        install_tracer(None)
    return [driver], {
        "losses": result.losses,
        "counter_flops": counter.total,
        "span_flops": _root_flops(driver),
    }


def _run_distributed(model_name: str) -> tuple[list[Tracer], dict[str, Any]]:
    from repro.distributed.api import distributed_train

    a, features, labels = _problem()
    result = distributed_train(
        model_name, a, features, labels,
        hidden_dim=_CASE["k"], out_dim=_CASE["classes"],
        num_layers=_CASE["layers"], p=4, epochs=_CASE["epochs"],
        seed=_CASE["seed"], dtype=np.float64,
    )
    stats = result.stats
    tracers = [s.tracer for s in stats.per_rank if s.tracer is not None]
    return tracers, {
        "losses": result.losses,
        "counter_flops": sum(s.flops.total for s in stats.per_rank),
        "span_flops": sum(_root_flops(t) for t in tracers),
        "total_wait_s": stats.total_wait_s,
        "wait_fraction": stats.wait_fraction,
    }


def _root_flops(t: Tracer) -> int:
    """Flop delta summed over the tracer's outermost spans."""
    return sum(s.flops for s in t.spans if s.depth == 0)


def run_case(
    case: str, model_name: str = "AGNN"
) -> tuple[list[Tracer], dict[str, Any]]:
    """Run ``case`` under tracing; returns (per-rank tracers, summary)."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if case == "distributed":
        return _run_distributed(model_name)
    return _run_driver(case, model_name)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="distributed", choices=CASES)
    parser.add_argument("--model", default="AGNN")
    parser.add_argument("--out-dir", default="benchmarks/results/obs")
    parser.add_argument("--limit", type=int, default=15,
                        help="rows in the printed top-spans table")
    args = parser.parse_args(argv)

    if not trace_enabled_default():
        sys.exit(
            f"tracing is disabled; run with {TRACE_ENV_VAR}=1 "
            "(this command exists to produce traces)"
        )

    tracers, summary = run_case(args.case, args.model)
    out_dir = Path(args.out_dir)
    trace_path = write_chrome_trace(
        out_dir / f"trace_{args.case}.json", tracers
    )
    rows = profile_spans(tracers)
    write_profile_json(
        out_dir / f"profile_{args.case}.json", rows,
        extra={"case": args.case, "model": args.model, "summary": summary},
    )
    write_profile_csv(out_dir / f"profile_{args.case}.csv", rows)

    print(format_top_spans(rows, limit=args.limit))
    counter_flops = summary["counter_flops"]
    span_flops = summary["span_flops"]
    status = "OK" if counter_flops == span_flops else "MISMATCH"
    print(
        f"flops reconciliation: spans={span_flops} "
        f"counters={counter_flops} [{status}]"
    )
    print(f"wrote {trace_path} ({len(tracers)} track(s))")
    if counter_flops != span_flops:
        sys.exit("span flop deltas do not reconcile with FlopCounter totals")


if __name__ == "__main__":
    main()
