"""``repro.config`` is the one place ``src/`` reads the environment.

Structural scans pin the boundary (one module touches ``os.environ``,
one ``REPRO_*`` name exists, no mode argument keeps a ``None`` = "ask
the environment" state); the rest validates the surviving variable.
``REPRO_TRACE``'s spellings stay pinned where they always were
(``tests/test_obs.py::TestEnvGate``).
"""

from __future__ import annotations

import ast
import os
import re
import threading
from pathlib import Path

import pytest

from repro import config
from repro.runtime.executor import run_spmd
from tests import _spmd_programs as programs

SRC = Path(__file__).parent.parent / "src"
CONFIG = SRC / "repro" / "config.py"


def _trees():
    files = sorted(SRC.rglob("*.py"))
    assert CONFIG in files
    return [(path, ast.parse(path.read_text())) for path in files]


def _reads_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if {alias.name for alias in node.names} & {"environ", "getenv"}:
                return True
    return False


class TestOneBoundary:
    def test_only_config_reads_the_environment(self):
        readers = [path for path, tree in _trees() if _reads_environment(tree)]
        assert readers == [CONFIG]

    def test_exactly_one_variable_is_named_in_src(self):
        names = set()
        for _, tree in _trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.update(re.findall(r"REPRO_[A-Z_]+", node.value))
        assert names == {config.TRACE_ENV_VAR}

    def test_the_removed_fabric_variable_is_not_read(self, monkeypatch):
        """``REPRO_FABRIC_BACKEND`` selected the process fabric; set to
        anything at all it now changes nothing and cannot raise: ranks
        are threads of this process, closures included."""
        for value in ("process", "gpu"):
            monkeypatch.setenv("REPRO_FABRIC_BACKEND", value)
            result = run_spmd(2, lambda comm: threading.current_thread().name)
            assert result.values == ["rank-0", "rank-1"]

    def test_config_is_a_leaf(self):
        for node in ast.walk(ast.parse(CONFIG.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                assert node.level == 0
            else:
                continue
            assert not [m for m in modules if m.split(".")[0] == "repro"]

    def test_no_mode_argument_defers_to_the_environment(self):
        """``overlap`` / ``fused`` are plain booleans everywhere: the
        ``None`` = "ask the environment" state is gone."""
        offenders = []
        for path, tree in _trees():
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[::-1], args.defaults[::-1]))
                pairs += list(zip(args.kwonlyargs, args.kw_defaults))
                for arg, default in pairs:
                    if (
                        arg.arg in ("overlap", "fused")
                        and isinstance(default, ast.Constant)
                        and default.value is None
                    ):
                        offenders.append(f"{path.name}:{node.name}({arg.arg})")
        assert offenders == []


class TestValidation:
    @pytest.mark.parametrize("raw", [None, "", "  "])
    def test_unset_or_empty_means_default(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv(config.TRACE_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(config.TRACE_ENV_VAR, raw)
        assert config.trace_enabled_default() is False

    @pytest.mark.parametrize("name,bad", [
        ("REPRO_TRACE", "verbose"),
        ("REPRO_TRACE", "2"),
    ])
    def test_bad_value_raises_naming_the_variable(self, monkeypatch, name, bad):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ValueError, match=name):
            config.trace_enabled_default()

    def test_trace_is_read_at_call_time(self, monkeypatch):
        """The e2e probe sets ``REPRO_TRACE`` around one traced unit:
        each ``run_spmd`` must see the value of the moment."""
        def traced():
            result = run_spmd(2, programs.traced_span_work)
            return [s.tracer is not None for s in result.stats.per_rank]

        monkeypatch.delenv(config.TRACE_ENV_VAR, raising=False)
        assert traced() == [False, False]
        monkeypatch.setenv(config.TRACE_ENV_VAR, "1")
        assert traced() == [True, True]
        monkeypatch.delenv(config.TRACE_ENV_VAR)
        assert traced() == [False, False]


class TestKernelCacheDir:
    """Where the compiled sweep is cached (the loader itself:
    ``tests/test_edge_kernels.py``)."""

    @pytest.fixture
    def home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        return tmp_path / "home"

    def test_xdg_first_then_home_created_private(self, monkeypatch, home, tmp_path):
        assert config.kernel_cache_dir() == str(home / ".cache" / "repro")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = Path(config.kernel_cache_dir())
        assert path == tmp_path / "xdg" / "repro"
        assert path.stat().st_mode & 0o777 == 0o700
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")  # XDG: ignore
        assert config.kernel_cache_dir() == str(home / ".cache" / "repro")

    def test_a_directory_someone_else_owns_is_refused(self, monkeypatch, home):
        owned = config.kernel_cache_dir()
        monkeypatch.setattr(config.os, "getuid", lambda: os.stat(owned).st_uid + 1)
        private = config.kernel_cache_dir()
        assert private != owned and not private.startswith(str(home))
        assert Path(private).stat().st_mode & 0o777 == 0o700
        assert config.kernel_cache_dir() != private  # nothing shared, nothing cached

    def test_unwritable_candidates_fall_to_a_private_directory(self, monkeypatch, home):
        monkeypatch.setenv("HOME", "/proc/no-such-home")
        monkeypatch.setenv("XDG_CACHE_HOME", "/proc/no-such-cache")
        assert Path(config.kernel_cache_dir()).is_dir()
