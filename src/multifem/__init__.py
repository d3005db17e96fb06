"""multifem: a miniature multi-domain finite element form language.

Variational forms are written over sequences of meshes; integration measures
may intersect entities of several meshes, unknowns live on product spaces as
single monolithic Coefficients, and assembly resolves mesh-to-mesh entity
correspondence through composed entity maps.
"""

from .assemble import (ConvergenceError, DirichletBC, assemble, dirichlet_dofs,
                       dump_matrix, eliminate_component, error_norms,
                       interpolate, iteration_set, newton_solve, solve_linear)
from .compile import (CompileError, LocalKernel, align_interface_quadrature,
                      compile_integral, execute_kernel)
from .fe import (MAX_DEGREE, MAX_QUADRATURE_DEGREE, QuadratureRule,
                 ReferenceElement, geometry_jacobian, geometry_map,
                 make_element, make_quadrature, reference_vertices)
from .forms import (EVERYWHERE, Analytic, Argument, Coefficient, Constant,
                    Expr, FacetNormal, Form, FormDiagnostic, FunctionSpace,
                    Indexed, Integral, Measure, MeshSequence, MixedElement,
                    TestFunction, TrialFunction, Zero, avg, derivative, grad,
                    inner, jump, restrict, split)
from .mesh import (BOUNDARY_MARKER, INTERFACE_MARKER, CellType, EntityMap,
                   Mesh, build_hybrid_unit_square, build_split_unit_square,
                   classify_facets, compose_maps, extract_codim0_submesh,
                   extract_codim1_submesh)
from .studies import (StudyConfig, StudyReport, StudyRow,
                      build_quad_tri_problem, build_sipg_problem,
                      build_split_interface_problem, emit_report,
                      exact_gradient, exact_solution, mesh_size, run_study,
                      solution_errors, solve_problem, source_term,
                      tabulate_report)

__version__ = "0.1.0"
