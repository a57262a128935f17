"""Tests for the benchmark harness, configs, CLI and report renderer."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.bench.configs import FIGURE_CONFIGS, scaled_figure
from repro.bench.harness import make_graph, run_config, write_csv
from repro.bench.report import load_results, render_figure
from repro.bench.unified_bench import build_parser
from repro.bench.unified_bench import main as bench_main


@pytest.fixture(scope="module")
def small_graph():
    return make_graph("uniform", 128, 1200, seed=0)


class TestMakeGraph:
    @pytest.mark.parametrize("kind", ["kronecker", "uniform", "powerlaw"])
    def test_kinds(self, kind):
        graph = make_graph(kind, 128, 600, seed=0)
        assert graph.shape[0] in (128,)  # kronecker rounds 128 -> 128
        assert graph.nnz > 0
        # Attention-ready: full diagonal present.
        dense = graph.to_dense()
        assert np.all(np.diag(dense) == 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_graph("smallworld", 64, 100)


class TestRunConfig:
    @pytest.mark.parametrize("formulation", ["global", "local", "minibatch"])
    def test_formulations_produce_rows(self, small_graph, formulation):
        row = run_config(
            "testfig", "GAT", formulation, "training", small_graph,
            k=8, layers=2, p=4, seed=0,
        )
        assert row.model == "GAT"
        assert row.p == 4
        assert row.modeled_s > 0
        assert row.comm_words > 0
        assert row.flops > 0
        assert row.modeled_s == pytest.approx(
            row.modeled_compute_s + row.modeled_comm_s
        )

    def test_inference_task(self, small_graph):
        row = run_config(
            "testfig", "VA", "global", "inference", small_graph,
            k=8, layers=2, p=4,
        )
        train = run_config(
            "testfig", "VA", "global", "training", small_graph,
            k=8, layers=2, p=4,
        )
        assert row.modeled_s < train.modeled_s

    def test_gcn_gets_normalised_adjacency(self, small_graph):
        row = run_config(
            "testfig", "GCN", "global", "inference", small_graph,
            k=8, layers=2, p=4,
        )
        assert row.modeled_s > 0

    def test_extra_info_merged(self, small_graph):
        row = run_config(
            "testfig", "VA", "global", "inference", small_graph,
            k=8, layers=1, p=1, extra_info={"rho": 0.5},
        )
        assert row.extra["rho"] == 0.5

    def test_unknown_formulation(self, small_graph):
        with pytest.raises(ValueError):
            run_config("f", "VA", "telepathy", "training", small_graph,
                       k=8, layers=2, p=4)


class TestCsvAndReport:
    def test_write_and_load_roundtrip(self, tmp_path, small_graph):
        rows = [
            run_config("figX", "VA", "global", "inference", small_graph,
                       k=8, layers=1, p=p)
            for p in (1, 4)
        ]
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        write_csv(rows, path)  # append is idempotent header-wise
        loaded = load_results(tmp_path)
        assert {r["figure"] for r in loaded} == {"figX"}
        assert {r["p"] for r in loaded} == {"1", "4"}

    def test_render_figure(self, tmp_path, small_graph):
        rows = [
            run_config("figY", "VA", "global", "inference", small_graph,
                       k=8, layers=1, p=p)
            for p in (1, 4, 16)
        ]
        write_csv(rows, tmp_path / "r.csv")
        text = render_figure(load_results(tmp_path), "figY")
        assert "figY" in text
        assert "VA" in text and "global" in text

    def test_render_missing_figure(self):
        assert "no data" in render_figure([], "nothing")


class TestConfigs:
    def test_all_figures_enumerate_points(self):
        for name in FIGURE_CONFIGS:
            points = scaled_figure(name)
            assert points, name
            for model, formulation, n, m, k, p, rho in points:
                assert n > 0 and m >= n and k > 0 and p >= 1
                assert 0 < rho <= 1

    def test_weak_scaling_grows_n(self):
        points = scaled_figure("fig8_weak_kron")
        ns = {p: n for _m, _f, n, _mm, _k, p, _r in points}
        assert ns[16] > ns[4] > ns[1]

    def test_strong_scaling_fixes_n(self):
        points = scaled_figure("fig6_k16")
        ns = {n for _m, _f, n, _mm, _k, _p, _r in points}
        assert len(ns) == 1

    def test_scale_knob(self):
        base = scaled_figure("fig6_k16", scale=1.0)
        double = scaled_figure("fig6_k16", scale=2.0)
        assert double[0][2] == 2 * base[0][2]


class TestUnifiedCLI:
    def test_parser_matches_artifact_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["-m", "VA", "-v", "1000", "-e", "5000", "--features", "8",
             "-l", "2", "--inference", "--repeat", "3", "--warmup", "1",
             "-t", "float32", "-s", "42", "-d", "uniform"]
        )
        assert args.model == "VA"
        assert args.vertices == 1000
        assert args.inference
        assert args.seed == 42

    def test_end_to_end_run(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = bench_main(
            ["-m", "GCN", "-v", "128", "-e", "600", "-p", "4",
             "--features", "8", "-l", "2", "--repeat", "2", "--warmup", "1",
             "--inference", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "GCN" in captured and "measured median" in captured

    def test_file_loading_path(self, tmp_path):
        from repro.graphs import erdos_renyi, save_npz

        graph_path = tmp_path / "g.npz"
        save_npz(graph_path, erdos_renyi(64, 300, seed=0))
        code = bench_main(
            ["-m", "VA", "-f", str(graph_path), "-p", "1", "--features",
             "4", "-l", "1", "--repeat", "1", "--warmup", "0",
             "--inference", "--output", str(tmp_path / "r.csv")]
        )
        assert code == 0


class TestValidation:
    @pytest.mark.parametrize("name", ["VA", "AGNN", "GAT", "GCN"])
    def test_validate_model_passes(self, small_graph, name):
        from repro.bench.validate import validate_model

        report = validate_model(name, small_graph, k=6, layers=2, p=4)
        assert report.passed, str(report)
        assert report.inference_global < 1e-8
        assert report.inference_local < 1e-8
        assert report.training_global < 1e-8

    def test_cli_validate_flag(self, small_graph, capsys):
        code = bench_main(
            ["-m", "GCN", "-v", "128", "-e", "600", "-p", "4",
             "--features", "6", "-l", "2", "--validate"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out


def _imports_repro_bench(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "repro":
                names += [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "repro.bench" or n.startswith("repro.bench.") for n in names):
            return True
    return False


def test_bench_is_a_leaf_holding_only_the_figure_sweep():
    """``repro.bench`` is the paper-figure family and nobody's dependency.

    Wall-clock has one runner, ``benchmarks/e2e/``; it and the library
    must not reach into the figure harness, and no second timing
    harness may grow back inside it.
    """
    root = Path(__file__).parent.parent
    package = root / "src" / "repro"
    assert sorted(p.stem for p in (package / "bench").glob("*.py")) == [
        "__init__", "configs", "harness", "report", "sweep",
        "unified_bench", "validate",
    ]
    outside = [
        p for p in package.rglob("*.py") if (package / "bench") not in p.parents
    ]
    runner = list((root / "benchmarks" / "e2e").glob("*.py"))
    assert outside and runner
    offenders = [
        str(p.relative_to(root)) for p in outside + runner
        if _imports_repro_bench(p)
    ]
    assert offenders == []
