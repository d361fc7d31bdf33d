"""2-D shallow water solver coupling an implicit hybridized DG treatment of
the linear gravity-wave operator with an explicit nodal DG treatment of the
nonlinear remainder through additive IMEX Runge-Kutta schemes."""

from .basis import NodalBasis, element_operators, gll, nodal_basis
from .cases import TestCase, l2_error, lake_at_rest, make_case, mms_nonlinear, standing_wave
from .dg import ExplicitOperator, StateField, nodal_field, rusanov_flux
from .driver import (
    build_simulation,
    convergence,
    energy_proxy,
    explicit_gravity_dt,
    run,
    stability_study,
    total_mass,
)
from .hdg import (
    CondensedSystem,
    ImplicitSolverBank,
    TraceField,
    assemble_local,
    condense_and_factor,
    implicit_solve,
)
from .imex import ImexTableau, check_order_conditions, scheme_names, step, tableau
from .mesh import Mesh, build_structured, gll_node_coords
from .swe import ModelParams, flux_full, flux_nonlinear, source

__version__ = "0.1.0"
