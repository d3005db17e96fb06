"""The benchmark's span tracer must find every function it wraps.

perfbench/tracing.py wraps multifem functions by (module, attribute path).
Loading it read-only here and resolving every hook against the package
makes a rename of a traced function fail this suite, not only the
benchmark's traced run.  The tracer's call counts of one warm reassembly
pair are checked here too, so the suite sees the work the benchmark sees.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from multifem import forms

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
HOOKS = TRACING.HOOKS


@pytest.mark.parametrize("module_name, path",
                         [(hook[1], hook[2]) for hook in HOOKS],
                         ids=[f"{hook[1]}.{hook[2]}" for hook in HOOKS])
def test_traced_function_resolves_in_the_package(module_name, path):
    owner = importlib.import_module(module_name)
    assert Path(owner.__file__).resolve().is_relative_to(ROOT / "src")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_entity_count_hook_reads_the_iteration_set_size(asm, studies):
    # the tracer counts len() of _iteration_entities' result as entities
    problem = studies.build_split_interface_problem(1, 0)
    for itg in problem.residual.integrals:
        entities = asm._iteration_entities(itg.measure)
        assert len(entities) == len(asm.iteration_set(itg)) > 0


def test_warm_pair_reruns_only_the_kernels_that_read_u(asm, studies):
    # reassembly-warm's pair, counted by the benchmark's own tracer: the
    # residual runs five kernels, one per group of integrals sharing a
    # rule, static-ness and iteration set (two cell stiffness kernels, two
    # source kernels and one for the three interface integrals); the five
    # Jacobian kernels read no coefficient and the two source kernels read
    # only pure sources, so after the first pair only the three residual
    # kernels that read u rerun, and the constrained pattern and its
    # Dirichlet dofs are kept
    problem = studies.build_problem("quad-tri", 2, 2)
    jacobian = forms.derivative(problem.residual, problem.u)
    rng = np.random.default_rng(3)
    calls = []
    for _ in range(3):
        problem.u.values[:] = rng.standard_normal(problem.space.num_dofs)
        tracer = TRACING.Tracer()
        with tracer.installed():
            asm.assemble(problem.residual)
            asm.assemble(jacobian, problem.bcs)
        metrics, _ = tracer.layer_metrics()
        calls.append((metrics["compile.kernel_calls"][0],
                      metrics["assemble.bcs_calls"][0]))
    assert calls == [(10, 1), (3, 0), (3, 0)]


def test_only_the_form_checker_states_measure_rules():
    # participation and restriction rules live in forms.validate_form,
    # which compile_integral runs; a raise about them in the compiler or
    # the assembler would be a second copy that can disagree with it
    offenders = []
    for name in ("compile.py", "assemble.py"):
        tree = ast.parse((ROOT / "src" / "multifem" / name).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            message = " ".join(
                part.value for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value,
                                                                 str))
            if "participat" in message or "restrict" in message:
                offenders.append(f"{name}:{node.lineno} {message!r}")
    assert not offenders


PARENT_CHAIN = {"parent", "parent_map", "facet_to_parent", "vertex_to_parent"}


def test_only_the_mesh_module_reads_the_parent_chain():
    # Mesh.root_entities composes a submesh's maps up to its root mesh;
    # code that walked the chain itself would be a second owner of its
    # layout (Mesh.root() stays allowed)
    offenders = []
    for path in sorted((ROOT / "src" / "multifem").glob("*.py")):
        if path.name == "mesh.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in PARENT_CHAIN:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not offenders


GEOMETRY_PATH = {"make_quadrature", "tabulate", "geometry_jacobian",
                 "push_forward", "planes"}


def test_only_the_kernel_layer_evaluates_geometry():
    # quadrature rules, basis tables, Jacobians and dof contractions are
    # evaluated by fe and compile alone; every integral, the error norms'
    # functionals too, reaches them through compile's MeasureGeometry, so a
    # call elsewhere would be a second geometry path
    offenders = []
    for path in sorted((ROOT / "src" / "multifem").glob("*.py")):
        if path.name in ("fe.py", "compile.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in GEOMETRY_PATH:
                offenders.append(f"{path.name}:{node.lineno} {name}()")
    assert not offenders
