"""Span tracing of multifem's layers, installed from outside the package.

The traced run wraps public functions of each module (mesh, fe, forms,
compile, assemble, studies, cli).  multifem modules call the functions they
imported by name, so a wrapper replaces *every* binding of the original
function in every loaded multifem module; methods are replaced on their
class.  Nothing under src/ changes, and uninstalling restores every binding.

Spans (name, start, end, parent span, cell id) are kept in memory and
written once, when the run ends.  A layer's busy time is the summed duration
of its outermost spans; its self time subtracts the time its child spans
cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

import numpy as np
import scipy.sparse


def _count_meshes(tracer, args, result):
    mesh = result[0] if isinstance(result, tuple) else result  # (mesh, map)
    tracer.counts["mesh.cells"] += mesh.num_cells
    tracer.counts["mesh.facets"] += mesh.num_facets


def _count_space(tracer, args, result):
    tracer.counts["forms.ndofs"] += args[0].num_dofs


def _count_matrix(tracer, args, result):
    if scipy.sparse.issparse(result):
        tracer.counts["assemble.nnz"] += result.nnz


def _count_entities(tracer, args, result):
    tracer.counts["assemble.entities"] += len(result)


def _count_cg_iteration(tracer, args, result):
    tracer.counts["assemble.cg_iters"] += 1


def _count_steps(tracer, args, result):
    tracer.counts["assemble.newton_steps"] += int(result)


def _assembly_kind(result):
    return ("assemble.jacobian" if scipy.sparse.issparse(result)
            else "assemble.residual")


# (span name, or None for a count-only hook; module; attribute path;
#  counter run on the result, outside the span)
HOOKS = (
    ("mesh.build", "multifem.mesh", "build_hybrid_unit_square",
     _count_meshes),
    ("mesh.build", "multifem.mesh", "build_split_unit_square", _count_meshes),
    ("mesh.build", "multifem.mesh", "extract_codim0_submesh", _count_meshes),
    ("mesh.build", "multifem.mesh", "extract_codim1_submesh", _count_meshes),
    ("fe.geometry", "multifem.fe", "geometry_map", None),
    ("fe.geometry", "multifem.fe", "geometry_jacobian", None),
    ("fe.tabulate", "multifem.fe", "ReferenceElement.tabulate", None),
    ("forms.space", "multifem.forms", "FunctionSpace.__init__", _count_space),
    ("forms.derivative", "multifem.forms", "derivative", None),
    ("forms.validate", "multifem.forms", "validate_form", None),
    ("compile.compile", "multifem.compile", "compile_integral", None),
    ("compile.kernel", "multifem.compile", "execute_kernel", None),
    ("compile.pullback", "multifem.compile", "align_interface_quadrature",
     None),
    (_assembly_kind, "multifem.assemble", "assemble", _count_matrix),
    # The seed resolves each integral's iteration set here, once per
    # assembly pass; the public iteration_set() would resolve it again.
    (None, "multifem.assemble", "_iteration_entities", _count_entities),
    ("assemble.bcs", "multifem.assemble", "dirichlet_dofs", None),
    ("assemble.solve", "multifem.assemble", "solve_linear", None),
    ("assemble.schur", "multifem.assemble", "eliminate_component", None),
    (None, "multifem.assemble", "ReducedSystem.dot", _count_cg_iteration),
    ("assemble.errors", "multifem.assemble", "error_norms", None),
    ("studies.build", "multifem.studies", "build_problem", None),
    ("studies.solve", "multifem.studies", "solve_problem", _count_steps),
    ("studies.errors", "multifem.studies", "solution_errors", None),
    ("cli.main", "multifem.cli", "main", None),
    ("cli.report", "multifem.studies", "emit_report", None),
)

SPAN_NAMES = ("mesh.build", "fe.geometry", "fe.tabulate", "forms.space",
              "forms.derivative", "forms.validate", "compile.compile",
              "compile.kernel", "compile.pullback", "assemble.residual",
              "assemble.jacobian", "assemble.bcs", "assemble.solve",
              "assemble.schur", "assemble.errors", "studies.build",
              "studies.solve", "studies.errors", "cli.main", "cli.report")
COUNT_NAMES = ("mesh.cells", "mesh.facets", "forms.ndofs",
               "assemble.entities", "assemble.nnz", "assemble.cg_iters",
               "assemble.newton_steps")


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "multifem" or name.startswith("multifem.")]


class Tracer:
    """In-memory span recorder with install/uninstall of the hooks."""

    def __init__(self):
        self._name_id = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.cell = []
        self.cells = []
        self.counts = Counter()
        self._stack = [-1]
        self._cell = -1
        self._undo = []

    def set_cell(self, label):
        """Tag the spans that follow with a cell id."""
        self.cells.append(label)
        self._cell = len(self.cells) - 1

    def _wrap(self, name, fn, on_result):
        span_name, start, end = self.span_name, self.start, self.end
        parent, cell, stack = self.parent, self.cell, self._stack
        name_id = self._name_id
        clock = time.perf_counter
        dynamic = callable(name)
        nid = name_id.get(name, -1)

        def spanned(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            start.append(0.0)
            end.append(0.0)
            parent.append(stack[-1])
            cell.append(self._cell)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if dynamic:
                span_name[i] = name_id[name(result)]
            if on_result is not None:
                on_result(self, args, result)
            return result

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(self, args, result)
            return result

        return spanned if name is not None else counted

    def _install(self):
        for name, module_name, path, on_result in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, on_result)
            if outer:
                targets = [owner]
            else:
                targets = [m for m in _loaded_modules()
                           if getattr(m, attr, None) is original]
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def _uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Hooks in place for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def arrays(self):
        """Spans as arrays: name id, start, end, parent, cell."""
        return (np.asarray(self.span_name, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.cell, dtype=np.int64))

    def layer_metrics(self):
        """Busy time, self time and call count per span name, plus counts.

        Returns {metric: (value, unit)}; also the summed duration of root
        spans, which equals the summed self time of all spans.
        """
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        # a span nested inside a span of the same name is not busy time
        outermost = np.ones(len(dur), dtype=bool)
        for i in np.nonzero(has_parent)[0]:
            p = parent[i]
            while p >= 0:
                if name[p] == name[i]:
                    outermost[i] = False
                    break
                p = parent[p]
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            mine = name == nid
            out[f"{span}_s"] = (float(dur[mine & outermost].sum()), "s")
            out[f"{span}_self_s"] = (float(self_time[mine].sum()), "s")
            out[f"{span}_calls"] = (int(mine.sum()), "count")
        for count in COUNT_NAMES:
            out[count] = (int(self.counts[count]), "count")
        kernel_calls = out["compile.kernel_calls"][0]
        kernel_self = out["compile.kernel_self_s"][0]
        entities = out["assemble.entities"][0]
        out["compile.kernel_us"] = (
            1e6 * kernel_self / kernel_calls if kernel_calls else 0.0, "us")
        out["assemble.self_s"] = (out["assemble.residual_self_s"][0]
                                  + out["assemble.jacobian_self_s"][0], "s")
        out["assemble.kernel_calls_per_entity"] = (
            kernel_calls / entities if entities else 0.0, "1")
        out["trace.spans"] = (len(dur), "count")
        return out, float(dur[~has_parent].sum())

    def write(self, path):
        """Write every recorded span to a compressed .npz file."""
        name, start, end, parent, cell = self.arrays()
        origin = start.min() if len(start) else 0.0
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=name,
                            start=start - origin, end=end - origin,
                            parent=parent, cell=cell,
                            cells=np.array(self.cells, dtype=str))
