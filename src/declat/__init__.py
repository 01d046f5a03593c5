"""declat: discrete exterior calculus on irregular tetrahedral lattices.

Oriented simplicial complexes with exact integer incidence structure,
lowest-order Whitney forms, material-weighted discrete Hodge stars and
their sparse approximate inverses, symplectic leapfrog Maxwell evolution
with perfectly conducting walls, frequency-domain absorbing layers by
metric complexification, exactly charge-conserving particle coupling, and
executable audits of the combinatorial, reciprocity, and metric
consistency properties a lattice discretization must satisfy.
"""

from .mesh import (
    MeshError,
    SimplicialComplex,
    BoundaryClassification,
    EulerReport,
    classify_boundary,
    betti_numbers,
    euler_audit,
    load_mesh,
    parse_mesh,
    write_mesh,
)
from .dual import DualComplex
from .whitney import (
    AnalyticForm,
    Cochain,
    OutsideMeshError,
    WhitneyBasis,
    de_rham,
    interpolate_at_points,
    verify_coboundary,
    verify_partition_duality,
)
from .hodge import (
    MaterialMap,
    assemble_galerkin_dual,
    assemble_hodge,
    check_spd,
    dual_pairing_check,
    spai_inverse,
)
from .maxwell import (
    DiscreteCodifferential,
    MaxwellOperators,
    apply_pec,
    ampere_step,
    compare_inverse_modes,
    eigenmodes,
    hamiltonian,
    leapfrog_run,
    reduce_pec,
    stable_timestep,
)
from .pml import (
    StretchProfile,
    assemble_stretched,
    harmonic_solve,
    reflection_sweep,
    stretch_tensor,
)
from .pic import (
    Particle,
    ScatterResult,
    gather,
    push,
    scatter_current,
    verify_conservation,
)
from .dof import DofReport, dof_audit
from .audit import AuditReport, audit_first_kind, audit_hodge, audit_second_kind, run_full_audit
from . import generators

__version__ = "0.1.0"
