"""Cached assembly plans and the batched geometry path.

Assembly plans (iteration sets, dof index arrays, measure geometry,
pushed-forward argument tables, CSR patterns) are built on the first
assembly and reused; these tests check that a reused plan gives the same
operator as a fresh one, that it sees new coefficient values, that
argument tables are pushed forward once and equal a per-block pass, and
that the batched pullback equals the per-cell one.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import (CompileError, align_interface_quadrature,
                              push_forward)

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE


def _pair(asm, problem, jacobian):
    return (asm.assemble(problem.residual),
            asm.assemble(jacobian, problem.bcs))


class TestPlanReuse:
    @pytest.fixture(scope="class")
    def reused(self, asm, studies):
        """Split-interface p=1, n=1, assembled at u = 0 and then, through
        the cached plans, at a seeded u that vanishes on Dirichlet dofs."""
        problem = studies.build_split_interface_problem(1, 1)
        jacobian = forms.derivative(problem.residual, problem.u)
        r0, _ = _pair(asm, problem, jacobian)
        dofs, _ = asm.dirichlet_dofs(problem.space, problem.bcs)
        free = np.ones(problem.space.num_dofs, dtype=bool)
        free[dofs] = False
        u = np.random.default_rng(41).standard_normal(len(free))
        u[~free] = 0.0
        problem.u.values[:] = u
        r, A = _pair(asm, problem, jacobian)
        return problem, free, u, r0, r, A

    def test_problem_has_a_three_mesh_interface_measure(self, reused):
        problem = reused[0]
        sizes = {len(itg.measure.intersect_measures)
                 for itg in problem.residual.integrals}
        assert 2 in sizes  # dx(interface) ^ ds(left) ^ ds(right)

    def test_residual_difference_is_the_jacobian_action(self, reused):
        _, free, u, r0, r, A = reused
        gap = np.linalg.norm((r - r0 - A @ u)[free])
        assert gap <= 1e-10 * np.linalg.norm(r[free])

    def test_eliminated_operator_is_symmetric(self, asm, reused):
        # The auxiliary interface block makes the full Jacobian
        # non-symmetric; eliminating it gives the symmetric interior
        # penalty operator.
        problem, *_, A = reused
        S = asm.eliminate_component(A, problem.space.offsets,
                                    problem.aux_component).dense()
        assert np.linalg.norm(S - S.T) <= 1e-12 * np.linalg.norm(S)

    def test_jacobian_is_symmetric_where_no_block_is_eliminated(
            self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 1)
        J = forms.derivative(problem.residual, problem.u)
        asm.assemble(J, problem.bcs)
        A = asm.assemble(J, problem.bcs)
        assert spla.norm(A - A.T) <= 1e-12 * spla.norm(A)

    def test_fresh_problem_gives_bit_identical_results(self, asm, studies,
                                                       reused):
        _, _, u, _, r, A = reused
        fresh = studies.build_split_interface_problem(1, 1)
        fresh.u.values[:] = u
        r_fresh, A_fresh = _pair(
            asm, fresh, forms.derivative(fresh.residual, fresh.u))
        assert np.array_equal(r, r_fresh)
        assert np.array_equal(A.indptr, A_fresh.indptr)
        assert np.array_equal(A.indices, A_fresh.indices)
        assert np.array_equal(A.data, A_fresh.data)

    def test_meshes_are_read_only_once_a_plan_is_cached(self, asm):
        mesh = mm.build_split_unit_square(0)
        one = forms.Constant(1.0)
        assert asm.assemble(one * forms.Measure("dx", mesh)(1)) \
            == pytest.approx(0.5, abs=1e-14)
        for array in (mesh.cell_markers, mesh.facet_markers, mesh.vertices):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2

    def test_subdomains_of_a_remarked_mesh_sum_to_the_whole(self, asm,
                                                           studies):
        background = mm.build_split_unit_square(1)
        rng = np.random.default_rng(43)
        markers = rng.integers(1, 3, background.num_cells)
        mesh = mm.Mesh(2, background.vertices,
                       (background.cell_type_codes,
                        background.cell_vertex_ids),
                       cell_markers=markers)
        V = conftest.scalar_space(mesh, "Q", 2)
        u = forms.Coefficient(V)
        u.values[:] = rng.standard_normal(V.num_dofs)
        (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
        source = forms.Analytic(mesh, studies.source_term)
        integrand = (forms.inner(forms.grad(u0), forms.grad(v0))
                     + u0 * u0 * v0 - source * v0)
        dx = forms.Measure("dx", mesh)
        whole = integrand * dx
        parts = integrand * dx(1) + integrand * dx(2)
        for form in (lambda f: f, lambda f: forms.derivative(f, u)):
            a, b = asm.assemble(form(whole)), asm.assemble(form(parts))
            if hasattr(a, "toarray"):
                a, b = a.toarray(), b.toarray()
            assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


class TestBatchedPullback:
    @staticmethod
    def convex_quads(count, seed):
        """Seeded, perturbed, scaled and shifted convex quadrilaterals, none
        of them a parallelogram."""
        rng = np.random.default_rng(seed)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        verts = square + rng.uniform(-0.2, 0.2, (count, 4, 2))
        verts = (verts * rng.uniform(0.01, 100.0, (count, 1, 1))
                 + rng.uniform(-5.0, 5.0, (count, 1, 2)))
        edges = np.roll(verts, -1, axis=1) - verts
        turn = (edges[:, :, 0] * np.roll(edges, -1, axis=1)[:, :, 1]
                - edges[:, :, 1] * np.roll(edges, -1, axis=1)[:, :, 0])
        assert np.all(turn > 0)
        skew = verts[:, 0] + verts[:, 2] - verts[:, 1] - verts[:, 3]
        assert np.all(np.linalg.norm(skew, axis=1) > 1e-3)
        return rng, verts

    def test_batched_pullback_matches_the_stacked_single_cell_ones(self):
        rng, verts = self.convex_quads(50, 47)
        ref = rng.uniform(0.0, 1.0, (50, 7, 2))
        phys = fe.geometry_map(QUAD, verts, ref)
        batched = align_interface_quadrature(phys, QUAD, verts)
        stacked = np.stack([align_interface_quadrature(phys[e], QUAD,
                                                       verts[e])
                            for e in range(50)])
        assert batched.shape == (50, 7, 2)
        assert np.abs(batched - stacked).max() <= 1e-13
        assert np.abs(batched - ref).max() <= 1e-10

    def test_batched_maps_match_the_single_cell_ones(self):
        rng, verts = self.convex_quads(50, 53)
        ref = rng.uniform(0.0, 1.0, (9, 2))
        for cell, v in ((QUAD, verts), (TRI, verts[:, :3])):
            X = fe.geometry_map(cell, v, ref)
            J = fe.geometry_jacobian(cell, v, ref)
            for e in range(len(v)):
                assert np.abs(X[e] - fe.geometry_map(cell, v[e], ref)).max() \
                    <= 1e-13 * np.abs(X[e]).max()
                assert np.abs(J[e] - fe.geometry_jacobian(cell, v[e],
                                                          ref)).max() \
                    <= 1e-13 * np.abs(J[e]).max()

    def test_batched_affine_pullback_round_trips(self):
        rng, verts = self.convex_quads(50, 59)
        for cell, v, dim in ((TRI, verts[:, :3], 2), (mm.CellType.INTERVAL,
                                                      verts[:, :2], 1)):
            ref = rng.uniform(0.0, 0.5, (50, 5, dim))
            phys = fe.geometry_map(cell, v, ref)
            back = align_interface_quadrature(phys, cell, v)
            assert np.abs(back - ref).max() <= 1e-12

    def test_one_point_outside_its_cell_is_rejected(self):
        rng, verts = self.convex_quads(50, 61)
        ref = rng.uniform(0.1, 0.9, (50, 7, 2))
        ref[31, 4] = (1.3, 0.5)
        phys = fe.geometry_map(QUAD, verts, ref)
        with pytest.raises(CompileError, match="non-conforming or degenerate"):
            align_interface_quadrature(phys, QUAD, verts)


class TestArgumentTables:
    """Argument basis tables are pushed forward once per measure side and
    element, then sliced by every integral, entity block and assembly."""

    @staticmethod
    def argument_instructions(forms_):
        """(geometry side, instruction, dof-axis size) of every aval/agrad
        instruction in the forms' cached plans: one per integral of a
        bilinear form, one per group of integrals of a linear one."""
        for form in forms_:
            plans, _ = form._plans
            for plan in plans:
                kernel = plan.kernel
                sizes = (kernel.test_size, kernel.trial_size)
                for instr in kernel.tape:
                    if instr[0] in ("aval", "agrad"):
                        _, number, block, pidx, sidx = instr
                        yield (plan.geometry.side(pidx, sidx),
                               instr, sizes[number])

    def test_each_side_pushes_each_argument_element_forward_once(
            self, asm, studies, comp, monkeypatch):
        problem = studies.build_quad_tri_problem(1, 1)
        jacobian = forms.derivative(problem.residual, problem.u)
        pushed = []

        def counting(grads, jinv):
            pushed.append(grads)
            return push_forward(grads, jinv)

        monkeypatch.setattr(comp, "push_forward", counting)

        def argument_pushes():
            """Push-forward count per (side, element) of argument tables;
            coefficient gradients are pushed forward after contraction,
            so their input is never a cached table."""
            counts = {}
            for side, instr, _ in self.argument_instructions(
                    (problem.residual, jacobian)):
                if instr[0] == "agrad":
                    table = side.tables(instr[2].element)[1]
                    counts[(id(side), instr[2].element)] = sum(
                        g is table for g in pushed)
            return counts

        for _ in range(2):
            asm.assemble(problem.residual)
            asm.assemble(jacobian, problem.bcs)
            asm.assemble(problem.residual)
            counts = argument_pushes()
            assert len(counts) >= 4  # both meshes' cells and interface
            assert set(counts.values()) == {1}
        assert len(pushed) > len(counts)  # coefficient gradients still run

    def test_cached_tables_are_read_only_and_match_a_per_block_pass(
            self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 1)
        jacobian = forms.derivative(problem.residual, problem.u)
        asm.assemble(jacobian)
        seen = 0
        for side, (op, _, block, *_), size in self.argument_instructions(
                (jacobian,)):
            table = side.argument(block.element, op, block.offset, size)
            assert side.argument(block.element, op, block.offset,
                                 size) is table
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0
            # entities 3:7 as one tape block sees them; entity-independent
            # tables (leading axis 1) are not sliced
            vals, grads = (t if len(t) == 1 else t[3:7]
                           for t in side.tables(block.element))
            part = (vals if op == "aval"
                    else push_forward(grads, side.jinv[3:7]))
            expected = np.zeros(part.shape[:2] + (size,) + part.shape[3:])
            expected[:, :, block.offset:block.offset + block.ndofs] = part
            assert np.array_equal(table if len(part) == 1 else table[3:7],
                                  expected)
            seen += 1
        assert seen

    def test_one_block_at_two_offsets_gets_two_tables(self, asm):
        """A trial space listing the same meshes in the other order puts
        the quadrilateral block at another offset of an equally wide dof
        axis; the two padded tables must not be shared."""
        background = mm.build_hybrid_unit_square(0)
        mesh_q, _ = mm.extract_codim0_submesh(background, 1)
        mesh_t, _ = mm.extract_codim0_submesh(background, 2)
        q1, p1 = fe.make_element(QUAD, "Q", 1), fe.make_element(TRI, "P", 1)
        V = forms.FunctionSpace(forms.MeshSequence([mesh_q, mesh_t]),
                                forms.MixedElement([q1, p1]))
        W = forms.FunctionSpace(forms.MeshSequence([mesh_t, mesh_q]),
                                forms.MixedElement([p1, q1]))
        ds = forms.Measure("ds", mesh_q, intersect_measures=(
            forms.Measure("ds", mesh_t),))(mm.INTERFACE_MARKER)
        v_q, v_t = forms.split(forms.TestFunction(V))

        def matrix(u_q, u_t):
            return asm.assemble((u_q * v_q + 2.0 * u_t * v_t
                                 + 3.0 * u_q * v_t) * ds).toarray()

        A_V = matrix(*forms.split(forms.TrialFunction(V)))
        A_W = matrix(*forms.split(forms.TrialFunction(W))[::-1])
        n_q, n_t = V.offsets[1], W.offsets[1]
        assert np.abs(A_V).max() > 0.1
        assert np.array_equal(
            A_W[:, np.concatenate([n_t + np.arange(n_q), np.arange(n_t)])],
            A_V)
