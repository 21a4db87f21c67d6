"""Exact-arithmetic toolkit for modular data.

Construct and validate modular data (Verlinde and Dehn matrices over
cyclotomic fields), compute their fusion rings and Galois actions,
analyze Gaussian-sum sign relations, and decide congruence levels of
the induced representations of the modular group.

Importing the package loads none of its submodules.  Each public name
is resolved from its submodule on first access (PEP 562), so
``from moddata import radford_datum`` imports ``constructors`` and what
it needs, and ``import moddata.cli`` loads only what the CLI needs at
start-up.
"""

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_PUBLIC = {
    "cyclo": (
        "CycloNum",
        "galois_apply",
        "is_rational",
        "jacobi_symbol",
        "lift_conductor",
        "rational",
        "root_of_unity",
        "root_of_unity_exponent",
        "root_of_unity_order",
        "sqrt_integer",
    ),
    "datum": (
        "ModularDatum",
        "kronecker_product",
    ),
    "axioms": (
        "DatumReport",
        "derive_report",
        "power_identity_check",
        "validate_axioms",
        "verify_structural_identities",
    ),
    "fusion": (
        "FusionElement",
        "FusionTable",
        "fusion_coefficients",
        "idempotents",
        "multiply",
        "verify_idempotent_laws",
        "verify_ring_homomorphisms",
        "xi_evaluate",
    ),
    "galois": (
        "FusionSymbolTable",
        "GaloisPermutation",
        "arithmetic_divisibility_checks",
        "d_matrix",
        "definition_of_24_check",
        "fusion_symbol",
        "fusion_symbol_analysis",
        "fusion_symbol_table",
        "index_action",
        "is_galois_datum",
        "odd_sign_analysis",
        "relact_check",
        "verify_action_laws",
        "verlinde_field_index",
    ),
    "extension": (
        "CongruenceReport",
        "ExtendedDatum",
        "SL2Mod",
        "additive_charge",
        "enumerate_charges",
        "enumerate_ranks",
        "extension_family",
        "factor_check",
        "homogeneous_matrices",
        "lift_search",
        "make_extension",
        "sl2_enumerate",
    ),
    "constructors": (
        "CocycleFn",
        "classical_gauss_sum",
        "cocycle_omega",
        "radford_datum",
        "semion_datum",
        "su2_datum",
        "trivial_datum",
        "verify_3cocycle",
        "verify_gauss_lemma",
    ),
    "cli": (
        "load_datum",
        "parse_datum",
        "serialize_datum",
        "serialize_datum_text",
    ),
    "analysis": (
        "AnalysisBundle",
        "build_analysis",
        "congruence_classify",
        "extension_family_check",
    ),
}
# public name -> the submodule that defines it
_SOURCES = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (
    "cli",
    "constructors",
    "cyclo",
    "datum",
    "extension",
    "fusion",
    "galois",
    "linalg",
)

__all__ = [*_SUBMODULES, *_SOURCES, "__version__"]


def __getattr__(name):
    # __import__ rather than importlib.import_module: only the builtin
    # goes through the import path that ``python -X importtime`` reports
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _SOURCES:
        # looked up on every access, not cached here, so the name always
        # is the submodule's current binding
        module = __import__(f"{__name__}.{_SOURCES[name]}", fromlist=[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
