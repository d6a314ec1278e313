"""polyvec: exact polyvector-field calculus on C^d and its minimal models."""

from .superpoly import Monomial, SuperPoly, monomial_basis, random_poly
from .pvcalc import (
    contraction_K,
    de_rham,
    descendent_coefficient,
    divergence,
    divergence_via_transport,
    euler_contraction,
    schouten,
    symmetric_bracket,
    top_constant_pairing,
    vee_omega,
    vee_omega_inv,
)
from .complexes import (
    CarrierModel,
    DescendantField,
    Variant,
    cohomology_model,
    differential,
    phi_map,
)
from .contraction import (
    HomotopyDatum,
    build_datum,
    normalize_homotopy,
    verify_datum,
)
from .linf import (
    LInftyStructure,
    field_structure,
    jacobi_defect,
    minimal_model_structure,
    schouten_structure,
    transfer,
)
from .sho import (
    ExtElement,
    SuperVectorField,
    cocycle_check,
    ext_bracket_d3,
    ext_element,
    hamiltonian_vf,
    ham_generator,
    membership,
    super_divergence,
    vf_bracket,
)
from .sl2 import (
    act_e,
    act_f,
    act_h,
    embed,
    equivariance_check_cocycle,
    equivariance_compare_theorem,
    field_action,
    sl2_relations_check,
)
from .reporting import CheckRecord, Report

__version__ = "0.1.0"
