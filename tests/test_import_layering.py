"""Each process imports only what it uses (see "Import layering" in
docs/RUNTIME.md).

Every check runs in a fresh interpreter and inspects ``sys.modules``;
none of them gates on timing.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: The five strategy modules SimJob.run() can reach.
STRATEGY_MODULES = tuple(f"repro.assign.{name}" for name in (
    "fdrt", "friendly", "issue_time", "slot", "static_pc"))


def loaded_after(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('repro')]))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60, check=True)
    return set(json.loads(completed.stdout.splitlines()[-1]))


def loaded_prefixes(modules: set, *prefixes: str) -> list:
    return sorted(module for module in modules for prefix in prefixes
                  if module == prefix or module.startswith(prefix + "."))


def test_cli_loads_no_analysis_experiments_or_pipeline():
    modules = loaded_after("import repro.cli")
    assert loaded_prefixes(modules, "repro.analysis", "repro.experiments",
                           "repro.core.pipeline") == []


@pytest.mark.parametrize("module", ["repro.service.server",
                                    "repro.service.worker"])
def test_service_processes_load_no_simulator_or_client(module):
    modules = loaded_after(f"import {module}")
    assert loaded_prefixes(modules, "repro.core.pipeline",
                           "repro.workloads.generator",
                           "repro.service.client", "repro.obs.manifest",
                           "repro.obs.top", "repro.resilience") == []


def test_jsonfile_is_a_leaf():
    modules = loaded_after("import repro._jsonfile")
    assert modules - loaded_after("import repro") == {"repro._jsonfile"}


def test_http_is_a_leaf():
    modules = loaded_after("import repro._http")
    assert modules - loaded_after("import repro") == {"repro._http"}


@pytest.mark.parametrize("module", ["repro.runtime.cache", "repro.obs.top"])
def test_remote_cache_and_top_load_no_service_module(module):
    modules = loaded_after(f"import {module}")
    assert loaded_prefixes(modules, "repro.service") == []


def test_cli_help_loads_no_engine():
    modules = loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass")
    assert "repro.cli" in modules
    assert "repro.runtime.executor" not in modules


def test_engine_preloads_simulator_and_strategies_before_forking():
    modules = loaded_after("import repro.runtime.executor")
    missing = {"repro.core.simulator", *STRATEGY_MODULES} - modules
    assert not missing


def _packages():
    return ["repro"] + sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg)


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    assert module.__all__
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_star_import_and_from_import_still_work():
    namespace = {}
    exec("from repro.obs import *\nfrom repro import simulate",
         namespace)
    import repro.obs

    assert set(repro.obs.__all__) <= set(namespace)
    assert callable(namespace["simulate"])
