"""stackyrr: exact Riemann-Roch bookkeeping for finite quotient stacks.

Cyclotomic field arithmetic, finite-group actions and their inertia
constructions, characters and their trace map to inertia, orbifold-curve
Riemann-Roch, and the chi_top / chi_orb / chi_phy Euler-characteristic
ladder -- everything in exact rational/cyclotomic arithmetic, with every
headline formula double-checked against an independent brute-force route.
"""

from .cyclonum import (
    CyclotomicNumber,
    canonicalize,
    cyclotomic_polynomial,
    euler_phi,
    galois_conjugate,
    lift_coeffs,
    root_of_unity,
    stacky_todd_closed_form,
    stacky_todd_sum,
)
from .errors import ConsistencyError, ResourceLimitError, ValidationError
from .exactlinalg import exact_rank
from .grouptheory import (
    FiniteGroup,
    OrbitDecomposition,
    Subgroup,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    count_commuting_tuples,
    direct_product,
    group_from_permutations,
    group_from_table,
    subgroup,
    subgroup_conjugacy_reps,
    trivial_group,
)
from .groupoidstack import (
    EquivariantMap,
    FiniteGSet,
    TowerLevel,
    coset_gset,
    disjoint_union,
    equivariant_map,
    flattening_bijection,
    gset_from_generator_action,
    gset_from_table,
    inertia,
    iterated_inertia,
    natural_gset,
    orbits,
    trivial_gset,
)
from .chartheory import (
    ClassFunction,
    InertiaFunction,
    MatrixRep,
    VirtualEqBundle,
    character_of,
    coset_character,
    devissage_matrix,
    devissage_phi,
    devissage_summary,
    eigencomponent_dim,
    induce,
    invariants_dim,
    one_dim_rep,
    permutation_character,
    permutation_rep,
    pushforward_to_point,
    regular_character,
    regular_rep,
    rep_from_generator_images,
    restrict,
    structure_bundle,
    trivial_character,
)
from .orbicurve import (
    FracDivisor,
    OrbifoldCurve,
    canonical_divisor,
    chi_orb_curve,
    chi_top_via_inertia,
    coarse_rr_oracle,
    degree,
    euler_char_rr,
    multiplicity,
    serre_duality_check,
    zero_divisor,
)
from .eulerlab import (
    CurveStrata,
    EulerReport,
    FormalProduct,
    GSetStrata,
    chi_m,
    chi_orb_gset,
    chi_phy_gset,
    chi_top_gset,
    euler_determinant,
    euler_report,
    euler_series,
    ladder_check,
    weighted_chi,
)
from . import smallgroups

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
