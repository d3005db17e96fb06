"""The benchmark's span tracer must find every function it wraps.

perfbench/tracing.py wraps multifem functions by (module, attribute path).
Loading it read-only here and resolving every hook against the package
makes a rename of a traced function fail this suite, not only the
benchmark's traced run.  The tracer's call counts of one warm reassembly
pair are checked here too, so the suite sees the work the benchmark sees.
The coarsest study cells' outputs are checked against the committed
FINGERPRINTS.json (tools/fingerprint.py).  The other checks read the
source: which module may state a rule or walk a structure, and that the
package exports nothing only tests run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from multifem import fe, forms
from multifem import mesh as mm

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("perfbench_tracing", "perfbench/tracing.py")
FINGERPRINT = _load("fingerprint", "tools/fingerprint.py")
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


def warm_pair_calls(asm, problem, residual):
    """(kernel calls, dirichlet_dofs calls) of three seeded pairs of
    residual and constrained Jacobian, counted by the benchmark's own
    tracer."""
    jacobian = forms.derivative(residual, problem.u)
    rng = np.random.default_rng(3)
    calls = []
    for _ in range(3):
        problem.u.values[:] = rng.standard_normal(problem.space.num_dofs)
        tracer = TRACING.Tracer()
        with tracer.installed():
            asm.assemble(residual)
            asm.assemble(jacobian, problem.bcs)
        metrics, _ = tracer.layer_metrics()
        calls.append((metrics["compile.kernel_calls"][0],
                      metrics["assemble.bcs_calls"][0]))
    return calls


def test_warm_pair_reruns_only_the_kernels_that_read_u(asm, studies):
    # reassembly-warm's pair: the residual has seven integrals, one plan
    # each (two cell stiffness, two source and three interface integrals);
    # the five that read u are linear in it, so they are applied as one
    # matvec by the Jacobian's static sum and their kernels never run.  The
    # first pair runs the five Jacobian kernels and the two source kernels
    # once; later pairs run none and keep the constrained pattern and its
    # Dirichlet dofs
    problem = studies.build_problem("quad-tri", 2, 2)
    calls = warm_pair_calls(asm, problem, problem.residual)
    assert calls == [(7, 1), (0, 0), (0, 0)]


def test_warm_pair_reruns_the_kernels_nonlinear_in_u(asm, studies):
    # the nonlinear twin: u^2 v, of degree two in u, is not linear in u, so
    # its kernel and the derivative's 2 u du v kernel rerun on every pair
    problem = studies.build_problem("quad-tri", 2, 2)
    mesh = problem.space.meshes[0]
    (u_q, _), (v_q, _) = (forms.split(problem.u),
                          forms.split(problem.residual.arguments()[0]))
    residual = problem.residual + u_q * u_q * v_q * forms.Measure("dx", mesh)
    calls = warm_pair_calls(asm, problem, residual)
    assert calls == [(9, 1), (2, 0), (2, 0)]


def test_a_warm_static_jacobian_copies_no_array(asm, studies):
    # the pair's constrained Jacobian is a new matrix object on the arrays
    # kept for its bcs: it allocates under an eighth of one float per entry
    problem = studies.build_problem("quad-tri", 1, 1)
    J = forms.derivative(problem.residual, problem.u)
    nnz = asm.assemble(J, problem.bcs).nnz
    tracemalloc.start()
    try:
        asm.assemble(J, problem.bcs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * nnz / 8


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
def test_a_warm_linear_residual_is_one_matvec_per_coefficient(
        asm, studies, monkeypatch, name):
    # its integrals linear in u add L u, L the Jacobian's static sum on its
    # unconstrained pattern: no kernel, no scatter; a second coefficient w
    # read linearly adds a second matvec
    problem = studies.build_problem(name, 1, 1)
    mesh = problem.space.meshes[0]
    w = forms.Coefficient(problem.space)
    (w_0, *_), (v_0, *_) = (forms.split(w),
                            forms.split(problem.residual.arguments()[0]))
    two = problem.residual + w_0 * v_0 * forms.Measure("dx", mesh)
    rng = np.random.default_rng(4)
    for residual, coefficients in ((problem.residual, 1), (two, 2)):
        asm.assemble(residual)
        calls = []
        for module, attr in ((asm, "execute_kernel"), (np, "bincount"),
                             (scipy.sparse.csr_matrix, "__matmul__")):
            def counted(*args, _f=getattr(module, attr), _name=attr, **kw):
                calls.append(_name)
                return _f(*args, **kw)
            monkeypatch.setattr(module, attr, counted)
        for values in (problem.u.values, w.values):
            values[:] = rng.standard_normal(len(values))
        r = asm.assemble(residual)
        monkeypatch.undo()
        assert calls == ["__matmul__"] * coefficients
        assert np.array_equal(r, asm.assemble(residual))


def test_only_the_form_checker_states_measure_rules():
    # participation and restriction rules live in forms.analyze, which
    # compile_integral runs; a raise about them in the compiler or the
    # assembler would be a second copy that can disagree with it
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


# the one distinctive fragment of each integrand rule that once lived in the
# tape builder and now lives in forms.analyze
MOVED_RULES = ("a sum mixes terms", "nonlinear in an argument",
               "under a differential operator", "gradients on codim-1 meshes",
               "trial function but no test", "unsupported node kind")


def test_only_the_form_checker_states_integrand_rules():
    # the argument, gradient and node-kind rules live in forms.analyze,
    # which validate_form reports: a raise of one in the compiler would be
    # a fault that assemble rejects and validate_form does not list
    stated = [node.value for node in ast.walk(ast.parse(
        (ROOT / "src" / "multifem" / "forms.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert all(any(fragment in text for text in stated)
               for fragment in MOVED_RULES)
    offenders = []
    tree = ast.parse((ROOT / "src" / "multifem" / "compile.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            message = " ".join(
                part.value for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value,
                                                                 str))
            offenders += [f"compile.py:{node.lineno} {fragment!r}"
                          for fragment in MOVED_RULES if fragment in message]
    assert not offenders


# the readers of an expression's operands, by module: the one analysis walk
# and differentiation (the tape builder reads key rows)
OPERAND_READERS = {"forms.py": {"analyze", "_linearize", "_rebuild"}}


def test_only_the_analysis_walk_and_its_peers_read_operands():
    # every fact kept about an integrand (its checks, signature, terminals,
    # arguments, degree and quadrature degree) comes from forms.analyze; a
    # node may read its own operands (self.operands), any other reader
    # would be a second walk
    offenders = []
    for path in sorted((ROOT / "src" / "multifem").glob("*.py")):
        allowed = OPERAND_READERS.get(path.name, set())
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) in allowed:
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "operands"
                        and isinstance(node.ctx, ast.Load)
                        and getattr(node.value, "id", None) != "self"):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_a_warm_plan_walks_each_integral_once(asm, comp, studies,
                                              monkeypatch):
    # with every kernel in the cache, each integral of the residual and the
    # Jacobian is walked once (forms.analyze, which keeps its analysis on
    # the integral): the residual's by derivative's argument check, the
    # Jacobian's inside compile_integral, and _plans walks none: linear
    # plans read their kernels' kept degree, the Jacobian's pattern its
    # sources' kept analyses
    warm = studies.build_problem("quad-tri", 1, 1)
    asm.assemble(warm.residual)
    asm.assemble(forms.derivative(warm.residual, warm.u), warm.bcs)
    problem = studies.build_problem("quad-tri", 1, 1)
    walks, compiling = [], []
    analyze, compile_integral = forms.analyze, asm.compile_integral

    def counted(integral):
        if "_analysis" not in vars(integral):
            walks.append((integral, bool(compiling)))
        return analyze(integral)

    def compiled(integral):
        compiling.append(integral)
        try:
            return compile_integral(integral)
        finally:
            compiling.pop()

    def missed(*args):
        raise AssertionError("a warm kernel cache missed")

    monkeypatch.setattr(forms, "analyze", counted)
    monkeypatch.setattr(asm, "compile_integral", compiled)
    monkeypatch.setattr(comp, "_compile", missed)
    J = forms.derivative(problem.residual, problem.u)
    asm.assemble(problem.residual)
    asm.assemble(J, problem.bcs)
    walked = [(integral, False) for integral in problem.residual.integrals]
    walked += [(integral, True) for integral in J.integrals]
    assert len(walks) == len(walked)
    assert all(a is b and in_a == in_b
               for (a, in_a), (b, in_b) in zip(walks, walked))


def _contents(value):
    """Every object inside nested tuples, lists, sets and frozensets."""
    if isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _contents(item)
    else:
        yield value


def _same_instructions(tape, other):
    return len(tape) == len(other) and all(
        len(a) == len(b) and all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(a, b)) for a, b in zip(tape, other))


def test_a_kernel_is_compiled_from_its_key_alone(comp, studies, monkeypatch):
    # the key holds no mesh, space or expression node, and compiling an
    # equal key of another level anew gives the cached kernel instruction
    # by instruction: the builder reads nothing the key leaves out
    monkeypatch.setattr(comp, "_kernels", {})
    levels, compared = {}, 0
    for name in studies.PROBLEMS:
        for degree in (1, 2):
            for level in (0, 1):
                problem = studies.build_problem(name, degree, level)
                J = forms.derivative(problem.residual, problem.u)
                for integral in problem.residual.integrals + J.integrals:
                    key = forms.analyze(integral).key
                    assert not [x for x in _contents(key) if isinstance(
                        x, (forms.Expr, mm.Mesh, forms.FunctionSpace))]
                    comp.compile_integral(integral)
                    if levels.setdefault(key, level) == level:
                        continue
                    fresh, cached = comp._compile(key), comp._kernels[key]
                    assert fresh.tape is not cached.tape
                    assert _same_instructions(fresh.tape, cached.tape)
                    for part in ("reg_vshapes", "coeff_slots", "arguments",
                                 "arg_blocks", "terms", "out_reg"):
                        assert getattr(fresh, part) == getattr(cached, part)
                    compared += 1
    assert compared


def _opened(value):
    """value with dicts as lists of items and dataclasses as lists of
    their fields, for _contents."""
    if isinstance(value, dict):
        value = list(value.items())
    elif dataclasses.is_dataclass(value):
        value = list(vars(value).values())
    if isinstance(value, (tuple, list)):
        return [_opened(item) for item in value]
    return value


def test_a_kept_kernel_holds_no_mesh_space_or_terminal(comp, studies,
                                                       monkeypatch):
    # compile_integral hands out the kept kernel itself, which names its
    # terminals by number: the plan binds them (Coefficients, Arguments and
    # Analytics are Exprs)
    monkeypatch.setattr(comp, "_kernels", {})
    for name in studies.PROBLEMS:
        problem = studies.build_problem(name, 1, 1)
        studies.solve_problem(problem)
        studies.solution_errors(problem)
    held = list(_contents(_opened(list(comp._kernels.values()))))
    for kind in (fe.ReferenceElement, np.ndarray):  # opened all the way
        assert any(isinstance(x, kind) for x in held)
    assert not [x for x in held if isinstance(
        x, (forms.Expr, mm.Mesh, forms.FunctionSpace))]


@pytest.mark.parametrize("solver, helper", [("splu", "_factor"),
                                            ("cg", "_jacobi_cg")])
def test_only_one_helper_names_each_solver(solver, helper):
    # every sparse LU goes through assemble._factor, whose singular error
    # names the system it factors; a second splu would leak SuperLU's bare
    # RuntimeError.  Every CG goes through assemble._jacobi_cg, whose M is
    # the two-level V-cycle; a second cg would be a second preconditioner
    offenders = []
    for path in sorted((ROOT / "src" / "multifem").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) == ("assemble.py",
                                                          helper):
                continue
            for node in ast.walk(top):
                if solver in {getattr(node, field, None)
                              for field in ("id", "attr", "name")}:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


PARENT_CHAIN = {"parent", "parent_map", "facet_to_parent"}


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


# Exports that no library, CLI or benchmark code runs, each with the reason
# it stays public; any other such export is surface only tests reach
UNRUN_EXPORTS = {
    "TrialFunction": "the form language",
    "restrict": "the form language",
    "compose_maps": "acceptance criterion 9 checks its laws",
    "iteration_set": "the iteration-set oracle probe",
    "interpolate": "a test helper, which conftest.py would only move",
}


def test_every_export_is_run_outside_the_tests():
    # a name counts as run when src/ (but __init__) or perfbench/ (but its
    # tests) names it in code, not in a docstring
    init = ast.parse((ROOT / "src" / "multifem" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    paths = [p for p in (ROOT / "src" / "multifem").glob("*.py")
             if p.name != "__init__.py"]
    paths += [p for p in (ROOT / "perfbench").glob("*.py")
              if not p.name.startswith("test_")]
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert set(UNRUN_EXPORTS) <= exported
    assert sorted(exported - referenced - set(UNRUN_EXPORTS)) == []


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
def test_the_coarsest_cells_match_their_fingerprints(name):
    # max|x| and the 2-norm of every output of the p=1, n=0 cell, to 1e-12
    # relative; tools/fingerprint.py --compare checks every cell's hashes
    want = json.loads((ROOT / "FINGERPRINTS.json").read_text())[
        f"{name} p=1 n=0"]
    got = FINGERPRINT.cell_fingerprints(name, 1, 0)
    assert got.keys() == want.keys()
    for output, record in want.items():
        assert got[output]["dtype"] == record["dtype"], output
        for stat in ("max", "norm"):
            assert abs(got[output][stat] - record[stat]) <= (
                1e-12 * record[stat]), output
