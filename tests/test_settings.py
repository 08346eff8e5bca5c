"""The runtime knob table and its one resolution rule."""

import ast
import pathlib
import re

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.runtime import ExperimentEngine, SimJob, settings
from repro.runtime.settings import KNOBS, configure, setting

pytestmark = pytest.mark.usefixtures("isolated_runtime")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def two_cells():
    return [SimJob(benchmark="gzip", spec=StrategySpec(kind=kind),
                   config=MachineConfig(), instructions=400, warmup=200)
            for kind in ("base", "fdrt")]


class TestRule:
    def test_an_empty_variable_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "")
        monkeypatch.setenv("REPRO_SERVE_PORT", "")
        assert setting("backoff") == 0.5
        assert setting("serve") is None

    def test_configure_takes_only_its_knobs(self):
        with pytest.raises(TypeError):
            configure(timeout=5)

    @pytest.mark.parametrize("variable,name", [
        ("REPRO_JOB_TIMEOUT", "timeout"),
        ("REPRO_STALE_AFTER", "stale_after"),
        ("REPRO_BENCH_INSTRUCTIONS", "bench_instructions"),
    ])
    def test_a_bad_value_names_its_variable(self, monkeypatch, variable,
                                            name):
        monkeypatch.setenv(variable, "abc")
        with pytest.raises(ValueError, match=f"{variable} 'abc'"):
            setting(name)

    def test_a_bad_backoff_names_its_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "abc")
        with pytest.raises(ValueError, match="REPRO_RETRY_BACKOFF 'abc'"):
            ExperimentEngine(cache=False)

    def test_a_bad_argument_names_its_knob(self):
        with pytest.raises(ValueError, match="serve argument 70000"):
            setting("serve", 70000)


class TestNonPositiveDeadlinesAreOff:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_durations(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", value)
        monkeypatch.setenv("REPRO_STALE_AFTER", value)
        assert setting("timeout") is None
        assert setting("stale_after") is None
        assert setting("timeout", 0) is None

    def test_a_zero_timeout_pool_run_completes(self):
        engine = ExperimentEngine(jobs=2, timeout=0, cache=False)
        try:
            results = engine.run(two_cells())
        finally:
            engine.close()
        assert engine.timeout is None
        assert [result.benchmark for result in results] == ["gzip", "gzip"]

    def test_a_zero_stale_budget_pool_run_completes(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("REPRO_STALE_AFTER", "0")
        engine = ExperimentEngine(jobs=2, cache=False,
                                  telemetry=str(tmp_path / "telemetry"))
        try:
            results = engine.run(two_cells())
        finally:
            engine.close()
        assert engine.stale_after is None
        assert len(results) == 2 and engine.report.failed == 0


class TestOneHome:
    def test_runtime_doc_lists_every_knob(self):
        text = (ROOT / "docs" / "RUNTIME.md").read_text(encoding="utf-8")
        section = text.split("## Knobs", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(REPRO_\w+)`", section, re.M)
        assert sorted(rows) == sorted(knob.env for knob in KNOBS.values())

    def test_only_settings_reads_the_environment(self):
        """Outside ``runtime/settings.py`` the environment is only
        copied whole, for a child process (``dict(os.environ)``)."""
        source = ROOT / "src" / "repro"
        own = pathlib.Path(settings.__file__).resolve()
        readers = []
        for path in sorted(source.rglob("*.py")):
            if path.resolve() == own:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            copies = {id(node.args[0]) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "dict" and node.args}
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else None)
                if name == "getenv" or (name == "environ"
                                        and id(node) not in copies):
                    readers.append(f"{path.relative_to(source)}:"
                                   f"{node.lineno}")
        assert readers == []
