"""Exact-arithmetic toolkit for modular data.

Construct and validate modular data (Verlinde and Dehn matrices over
cyclotomic fields), compute their fusion rings and Galois actions,
analyze Gaussian-sum sign relations, and decide congruence levels of
the induced representations of the modular group.
"""

from . import cli, constructors, cyclo, datum, extension, fusion, galois, linalg
from .cyclo import (
    CycloNum,
    galois_apply,
    is_rational,
    jacobi_symbol,
    lift_conductor,
    rational,
    root_of_unity,
    root_of_unity_exponent,
    root_of_unity_order,
    sqrt_integer,
)
from .datum import (
    DatumReport,
    ModularDatum,
    derive_report,
    kronecker_product,
    power_identity_check,
    validate_axioms,
    verify_structural_identities,
)
from .fusion import (
    FusionElement,
    FusionTable,
    fusion_coefficients,
    idempotents,
    multiply,
    verify_idempotent_laws,
    verify_ring_homomorphisms,
    xi_evaluate,
)
from .galois import (
    FusionSymbolTable,
    GaloisPermutation,
    arithmetic_divisibility_checks,
    definition_of_24_check,
    fusion_symbol,
    fusion_symbol_analysis,
    fusion_symbol_table,
    index_action,
    is_galois_datum,
    odd_sign_analysis,
    relact_check,
    verify_action_laws,
    verlinde_field_index,
)
from .extension import (
    CongruenceReport,
    ExtendedDatum,
    SL2Mod,
    additive_charge,
    congruence_classify,
    d_matrix,
    enumerate_charges,
    enumerate_ranks,
    extension_family,
    extension_family_check,
    factor_check,
    homogeneous_matrices,
    lift_search,
    make_extension,
    sl2_enumerate,
)
from .constructors import (
    CocycleFn,
    classical_gauss_sum,
    cocycle_omega,
    radford_datum,
    semion_datum,
    su2_datum,
    trivial_datum,
    verify_3cocycle,
    verify_gauss_lemma,
)
from .cli import (
    AnalysisBundle,
    build_analysis,
    load_datum,
    parse_datum,
    serialize_datum,
    serialize_datum_text,
)

__version__ = "0.1.0"
