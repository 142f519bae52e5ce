"""The package names and signatures the benchmark harness hooks into.

The traced benchmark run wraps the functions ``bench/tracer.py`` lists and
reads some of their arguments by name; the workloads call package names
directly, build systems by keyword, scan with ``jobs`` and pass ``--seed``
to every subcommand. A rename or a new signature fails the benchmark;
these checks fail first.
"""

import ast
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

import zenopure
from zenopure import cli, engine

TRACER_PATH = pathlib.Path(__file__).parents[1] / "bench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists(tracer):
    for module_name, names in tracer.LAYERS.items():
        module = getattr(zenopure, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_every_package_name_the_workloads_use_exists():
    # Each zenopure module the workloads import, under the name they bind
    # it to, and every attribute they read from that name.
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: importlib.import_module(f"zenopure.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "zenopure"
        for alias in node.names
    }
    assert set(modules) >= {"cli", "config", "engine", "osc"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("engine", "BipartiteSystem") in used and ("cli", "main") in used
    missing = sorted(f"{bound}.{attr}" for bound, attr in used
                     if not hasattr(modules[bound], attr))
    assert not missing


@pytest.mark.parametrize("module_name, name, param", [
    ("linalg", "hermitian_eigendecompose", "m"),
    ("linalg", "top_k_eigenpairs", "k"),
    ("config", "load_matrix_file", "path"),
    ("engine", "zeno_limit_scan", "jobs"),
])
def test_hooked_parameters_keep_their_names(module_name, name, param):
    function = getattr(getattr(zenopure, module_name), name)
    assert param in inspect.signature(function).parameters


def test_bipartite_system_constructs_by_keyword():
    system = engine.BipartiteSystem(dim_a=1, dim_b=2, hamiltonian=np.eye(2))
    assert (system.dim_a, system.dim_b) == (1, 2)


def test_every_subcommand_accepts_seed(tracer):
    parser = cli._build_parser()
    for kind in tracer.CLI_KINDS:
        argv = [kind, "--seed", "7"] + ([] if kind == "figure1" else ["--config", "x.cfg"])
        assert parser.parse_args(argv).seed == 7
