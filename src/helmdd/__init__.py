"""2-D Helmholtz finite elements on the unit square with impedance boundary
conditions, absorption-based domain decomposition preconditioners (RAS/HRAS
and their impedance-local variants, with nested inner-outer compositions),
GMRES/FGMRES solvers, and a field-of-values analysis suite."""

from .assembly import (AssemblyCoefficients, assemble_energy_matrix,
                       assemble_local_impedance, assemble_system, write_matrix_market)
from .decomposition import (Decomposition, Subdomain, build_coarse_interpolation,
                            build_decomposition, dump_decomposition)
from .krylov import KrylovConfig, KrylovReport, fgmres, gmres
from .mesh import (CoarseLayout, FineMesh, WaveSpeedField, build_coarse_layout,
                   build_fine_mesh, build_wavespeed, dump_mesh)
from .precond import (DirectFactorization, NestedSolver, PreconditionerOperator,
                      SingularMatrixError, build_nested_coarse_solver,
                      build_preconditioner)

__version__ = "0.1.0"
