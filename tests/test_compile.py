"""Element-local kernels: quadrature lowering, cross-mesh alignment, purity."""

import numpy as np
import pytest
import sympy

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import CompileError, align_interface_quadrature

TRI = mm.CellType.TRIANGLE
QUAD = mm.CellType.QUADRILATERAL


def bilinear(space, integrand_fn, measure):
    v = forms.TestFunction(space)
    t = forms.TrialFunction(space)
    return integrand_fn(forms.split(t), forms.split(v)) * measure


class TestCellKernels:
    def test_unit_area(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        value = asm.assemble(forms.Constant(1.0) * forms.Measure("dx", m))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_reference_triangle_stiffness(self, asm):
        m = conftest.single_cell_mesh(TRI, [(0.0, 0.0), (1.0, 0.0),
                                            (0.0, 1.0)])
        V = conftest.scalar_space(m, "P", 1)
        a = bilinear(V, lambda t, v: forms.inner(forms.grad(t[0]),
                                                 forms.grad(v[0])),
                     forms.Measure("dx", m))
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(asm.assemble(a).toarray(), expected, atol=1e-14)

    def test_stiffness_is_scale_invariant(self, asm):
        def stiffness(scale):
            m = conftest.single_cell_mesh(
                TRI, [(0.0, 0.0), (scale, 0.0), (0.0, scale)])
            V = conftest.scalar_space(m, "P", 1)
            a = bilinear(V, lambda t, v: forms.inner(forms.grad(t[0]),
                                                     forms.grad(v[0])),
                         forms.Measure("dx", m))
            return asm.assemble(a).toarray()

        assert np.allclose(stiffness(1.0), stiffness(7.5), atol=1e-14)

    def test_load_vector_spreads_area_evenly(self, asm):
        m = conftest.single_cell_mesh(TRI, [(0.0, 0.0), (2.0, 0.0),
                                            (0.0, 2.0)])
        V = conftest.scalar_space(m, "P", 1)
        v = forms.TestFunction(V)
        (v0,) = forms.split(v)
        b = asm.assemble(forms.Constant(1.0) * v0 * forms.Measure("dx", m))
        assert np.allclose(b, 2.0 / 3.0, atol=1e-14)  # area 2, three nodes

    def test_zero_state_gives_zero_residual(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        V = conftest.scalar_space(m, "Q", 1)
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        F = forms.inner(forms.grad(u0), forms.grad(v0)) * forms.Measure(
            "dx", m)
        assert np.all(asm.assemble(F) == 0.0)

    def test_symbolic_oracle_on_an_affine_cell(self, asm):
        verts = [(0.0, 0.0), (2.0, 0.0), (0.0, 1.0)]
        m = conftest.single_cell_mesh(TRI, verts)
        V = conftest.scalar_space(m, "P", 2)
        u = forms.Coefficient(V)
        f = lambda x, y: x * x + 3 * x * y - y * y + x - 2 * y + 1
        asm.interpolate(f, u, 0)
        (u0,) = forms.split(u)
        value = asm.assemble(u0 * u0 * forms.Measure("dx", m))
        x, y = sympy.symbols("x y")
        fsym = x**2 + 3 * x * y - y**2 + x - 2 * y + 1
        exact = float(sympy.integrate(
            sympy.integrate(fsym**2, (y, 0, 1 - x / 2)), (x, 0, 2)))
        assert value == pytest.approx(exact, rel=1e-12)


class TestInterfaceKernels:
    def test_penalty_kernel_is_the_trace_mass_matrix(self, asm):
        parent, mq, mt = conftest.quad_tri_interface_pair()
        V = conftest.make_space([mq, mt], [fe.make_element(QUAD, "Q", 1),
                                           fe.make_element(TRI, "P", 1)])
        ds = forms.Measure("ds", mq, 999,
                           intersect_measures=(forms.Measure("ds", mt),))
        k = 100.0 / 0.1
        a = bilinear(V, lambda t, v: forms.Constant(k) * (t[0] - t[1])
                     * (v[0] - v[1]), ds)
        A = asm.assemble(a).toarray()

        qa = conftest.dof_index_at(V, 0, (0.0, 0.0))
        qb = conftest.dof_index_at(V, 0, (0.0, 1.0))
        ta = conftest.dof_index_at(V, 1, (0.0, 0.0))
        tb = conftest.dof_index_at(V, 1, (0.0, 1.0))
        mass = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])  # unit facet
        for rows, cols, sign in (((qa, qb), (qa, qb), +1),
                                 ((ta, tb), (ta, tb), +1),
                                 ((qa, qb), (ta, tb), -1),
                                 ((ta, tb), (qa, qb), -1)):
            block = A[np.ix_(rows, cols)]
            assert np.allclose(block, sign * k * mass, atol=1e-13 * k)
        touched = {qa, qb, ta, tb}
        for i in range(V.num_dofs):
            if i not in touched:
                assert np.all(A[i, :] == 0.0) and np.all(A[:, i] == 0.0)

    def test_interior_facet_jump_kernel_ignores_cell_order(self, asm):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cells_ab = conftest.cells_of(TRI, [(0, 1, 2), (1, 3, 2)])
        cells_ba = conftest.cells_of(TRI, [(1, 3, 2), (0, 1, 2)])

        def jump_matrix(cells):
            m = mm.Mesh(2, verts, cells)
            V = conftest.scalar_space(m, "P", 1)
            t = forms.TrialFunction(V)
            v = forms.TestFunction(V)
            (t0,), (v0,) = forms.split(t), forms.split(v)
            jt = forms.restrict(t0, "+") - forms.restrict(t0, "-")
            jv = forms.restrict(v0, "+") - forms.restrict(v0, "-")
            return asm.assemble(jt * jv * forms.Measure("dS", m)).toarray()

        # vertex numbering is shared, so the dof order is identical and the
        # matrices must agree no matter which incident cell is labeled '+'
        assert np.allclose(jump_matrix(cells_ab), jump_matrix(cells_ba),
                           atol=1e-14)

    def test_interior_facet_average_of_continuous_field(self, asm):
        m = mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                 [1.0, 1.0]]),
                    conftest.cells_of(TRI, [(0, 1, 2), (1, 3, 2)]))
        V = conftest.scalar_space(m, "P", 1)
        u = forms.Coefficient(V)
        asm.interpolate(lambda x, y: x + 2 * y, u, 0)
        (u0,) = forms.split(u)
        average = forms.avg([forms.restrict(u0, "+"),
                             forms.restrict(u0, "-")])
        value = asm.assemble(average * forms.Measure("dS", m))
        # integral of x + 2y along the diagonal from (1,0) to (0,1)
        exact = np.sqrt(2.0) * 1.5
        assert value == pytest.approx(exact, rel=1e-13)


class TestQuadratureAlignment:
    def test_identity_round_trip_affine(self):
        verts = np.array([[0.3, 0.1], [1.7, 0.2], [0.5, 1.4]])
        ref = np.array([[0.2, 0.3], [0.1, 0.6], [0.5, 0.25]])
        phys = fe.geometry_map(TRI, verts, ref)
        back = align_interface_quadrature(phys, TRI, verts)
        assert np.allclose(back, ref, atol=1e-12)

    def test_identity_round_trip_bilinear(self):
        verts = np.array([[0.0, 0.0], [1.2, 0.1], [1.3, 1.1], [-0.1, 0.9]])
        ref = np.array([[0.25, 0.33], [0.8, 0.6], [0.05, 0.95]])
        phys = fe.geometry_map(QUAD, verts, ref)
        back = align_interface_quadrature(phys, QUAD, verts)
        assert np.allclose(back, ref, atol=1e-12)

    def test_cross_cell_agreement_on_a_shared_facet(self):
        parent, mq, mt = conftest.quad_tri_interface_pair()
        t = np.linspace(0.05, 0.95, 7)
        phys = np.stack([np.zeros_like(t), t], axis=1)  # x=0, y=t
        for mesh in (mq, mt):
            ref = align_interface_quadrature(phys, mesh.cell_type,
                                             mesh.cell_coords(0))
            again = fe.geometry_map(mesh.cell_type, mesh.cell_coords(0), ref)
            assert np.allclose(again, phys, atol=1e-12)

    def test_point_order_does_not_matter(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        t = np.linspace(0.1, 0.9, 5)
        phys = np.stack([np.ones_like(t), t], axis=1)
        fwd = align_interface_quadrature(phys, QUAD, verts)
        rev = align_interface_quadrature(phys[::-1], QUAD, verts)
        assert np.allclose(fwd, rev[::-1], atol=1e-13)

    def test_far_away_point_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(CompileError,
                           match="non-conforming or degenerate"):
            align_interface_quadrature(np.array([[5.0, 5.0]]), QUAD, verts)

    def test_newton_that_stops_short_names_its_step_cap(self, comp,
                                                         monkeypatch):
        monkeypatch.setattr(comp, "_NEWTON_MAXIT", 1)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 1.1], [0.0, 1.0]])
        with pytest.raises(CompileError,
                           match="did not converge in 1 Newton steps"):
            align_interface_quadrature(np.array([[0.3, 0.2]]), QUAD, verts)

    def test_a_point_off_its_segment_does_not_map_back(self):
        with pytest.raises(CompileError, match="does not map back onto its "
                           "physical point"):
            align_interface_quadrature(np.array([[0.5, 0.1]]),
                                       mm.CellType.INTERVAL,
                                       np.array([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("cell,verts", [
        (TRI, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        (QUAD, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        (mm.CellType.INTERVAL, [[0.0, 0.0], [1.0, 0.0]])])
    def test_zero_points_map_to_zero_reference_points(self, cell, verts):
        verts = np.array(verts)
        ref = align_interface_quadrature(np.zeros((0, 2)), cell, verts)
        assert ref.shape == (0, cell.dim)
        batched = align_interface_quadrature(
            np.zeros((3, 0, 2)), cell, np.stack([verts] * 3))
        assert batched.shape == (3, 0, cell.dim)


class TestCompileContracts:
    def test_nonlinear_argument_rejected(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        V = conftest.scalar_space(m, "Q", 1)
        v = forms.TestFunction(V)
        (v0,) = forms.split(v)
        with pytest.raises(CompileError, match="nonlinear"):
            asm.assemble(v0 * v0 * forms.Measure("dx", m))

    def test_unsplit_product_space_argument_rejected(self, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        V = problem.space
        v = forms.TestFunction(V)
        with pytest.raises(ValueError, match="scalar"):
            v * forms.Measure("dx", V.meshes[0])

    def test_default_quadrature_degree(self, studies):
        parent = mm.build_split_unit_square(0)
        ml, _ = mm.extract_codim0_submesh(parent, 1)
        V2 = conftest.scalar_space(ml, "Q", 2)
        v = forms.TestFunction(V2)
        (v0,) = forms.split(v)
        itg = (v0 * forms.Measure("dx", ml)).integrals[0]
        assert forms.analyze(itg).key[0] == 6  # 2p + 2 on quads

        tri_parent = mm.build_hybrid_unit_square(0)
        mt, _ = mm.extract_codim0_submesh(tri_parent, 2)
        V3 = conftest.scalar_space(mt, "P", 3)
        w = forms.TestFunction(V3)
        (w0,) = forms.split(w)
        itg = (w0 * forms.Measure("dx", mt)).integrals[0]
        assert forms.analyze(itg).key[0] == 6  # 2p on affine cells

    def test_quadrature_degree_override_changes_the_result(self, asm):
        # x^8 needs degree 8; a degree-2 rule must visibly disagree
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        f = forms.Analytic(m, lambda px, py: px ** 8)
        exact = asm.assemble(
            f * forms.Measure("dx", m, quadrature_degree=8))
        coarse = asm.assemble(
            f * forms.Measure("dx", m, quadrature_degree=2))
        assert exact == pytest.approx(1.0 / 9.0, abs=1e-14)
        assert abs(coarse - 1.0 / 9.0) > 1e-4

    def test_grad_of_a_constant_names_the_node(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        (v0,) = forms.split(forms.TestFunction(
            conftest.scalar_space(m, "Q", 1)))
        g = forms.grad(forms.Constant(1.0))
        with pytest.raises(CompileError, match="differential operator: "
                                               "Constant"):
            asm.assemble(forms.inner(g, forms.grad(v0))
                         * forms.Measure("dx", m))

    def test_grad_on_the_interface_mesh_rejected(self, asm, studies):
        problem = studies.build_split_interface_problem(1, 0)
        _, u_i, _ = forms.split(problem.u)
        (dz,) = {i.measure for i in problem.residual.integrals
                 if i.measure.mesh.dim == 1}
        with pytest.raises(CompileError, match="gradients on codim-1 meshes"):
            asm.assemble(forms.inner(forms.grad(u_i), forms.grad(u_i)) * dz)

    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_restricting_inside_or_outside_grad_gives_equal_tensors(
            self, asm, comp, monkeypatch, arity):
        # grad(restrict(w, '+')) and restrict(grad(w), '+') read the same
        # side's gradient, of a Coefficient or a trial function; each
        # integral compiles with a cold cache
        m = mm.build_split_unit_square(0)
        V = conftest.scalar_space(m, "Q", 2)
        u = forms.Coefficient(V)
        u.values[:] = np.random.default_rng(7).standard_normal(V.num_dofs)
        (u0,) = forms.split(u)
        (t0,) = forms.split(forms.TrialFunction(V))
        (v0,) = forms.split(forms.TestFunction(V))
        plus = t0 if arity == 2 else u0
        minus = u0 if arity == 0 else v0
        tensors = []
        for g in (forms.grad(forms.restrict(plus, "+")),
                  forms.restrict(forms.grad(plus), "+")):
            (integral,) = (forms.inner(g, forms.grad(forms.restrict(
                minus, "-"))) * forms.Measure("dS", m)).integrals
            with monkeypatch.context() as patch:
                patch.setattr(comp, "_kernels", {})
                tensors.append(asm._element_tensors(asm._plan_for(integral)))
        assert tensors[0].size and np.array_equal(*tensors)

    def test_assembly_is_bit_deterministic(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        J = forms.derivative(problem.residual, problem.u)
        first = asm.assemble(J)
        second = asm.assemble(J)
        assert np.array_equal(first.data, second.data)
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)


# a study residual's integral per kind of primal entity, and the cell of the
# rule its kernel takes: 2D cells their own, facets and codim-1 cells an
# interval
PRIMAL_ENTITIES = {
    "quadrilateral cells": ("quad-tri", QUAD, lambda m: m.integral_type
                            == "dx" and m.mesh.cell_type is QUAD),
    "triangle cells": ("quad-tri", TRI, lambda m: m.integral_type == "dx"
                       and m.mesh.cell_type is TRI),
    "facets": ("quad-tri", mm.CellType.INTERVAL,
               lambda m: m.integral_type == "ds"),
    "codim-1 cells": ("split-interface", mm.CellType.INTERVAL,
                      lambda m: m.mesh.dim == 1),
}


def with_degree(integral, degree):
    """The integral on a copy of its measure at quadrature degree degree."""
    m = integral.measure
    measure = forms.Measure(
        m.integral_type, m.mesh, m.subdomain_id,
        tuple(forms.Measure(t, mesh) for t, mesh in m.intersect_measures),
        quadrature_degree=degree)
    return forms.Integral(integral.integrand, measure)


def study_integral(studies, primal):
    name, cell, matches = PRIMAL_ENTITIES[primal]
    problem = studies.build_problem(name, 1, 0)
    return cell, next(i for i in problem.residual.integrals
                      if matches(i.measure))


@pytest.mark.parametrize("given", [None, 7])
@pytest.mark.parametrize("primal", sorted(PRIMAL_ENTITIES))
def test_a_kernel_takes_its_measures_rule(comp, studies, primal, given):
    # the measure's quadrature degree, else forms.analyze's default, on
    # the primal entities' reference cell; rules are shared per (cell,
    # degree), so the kernel holds the very rule
    cell, integral = study_integral(studies, primal)
    default = forms.analyze(integral).key[0]
    assert default != 7
    kernel = comp.compile_integral(with_degree(integral, given))
    degree = default if given is None else given
    assert kernel.quadrature is fe.make_quadrature(cell, degree)


@pytest.mark.parametrize("primal", ["triangle cells", "codim-1 cells"])
def test_an_unsupported_degree_names_its_measure(comp, studies, primal):
    _, integral = study_integral(studies, primal)
    integral = with_degree(integral, fe.MAX_QUADRATURE_DEGREE + 1)
    with pytest.raises(CompileError) as info:
        comp.compile_integral(integral)
    assert str(info.value).startswith(f"{integral.measure!r}: quadrature "
                                      f"degree {fe.MAX_QUADRATURE_DEGREE + 1}"
                                      " outside supported range")


def test_a_hybrid_primal_names_its_measure(asm):
    # a cell kernel needs one reference cell, and a primal mesh of
    # quadrilaterals and triangles has none
    measure = forms.Measure("dx", mm.build_hybrid_unit_square(0))
    with pytest.raises(CompileError) as info:
        asm.assemble(forms.Constant(1.0) * measure)
    assert str(info.value) == (f"{measure!r}: mesh is hybrid, no unique "
                               "cell type")
