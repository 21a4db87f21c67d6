"""Import hygiene, each case in a fresh interpreter: the package resolves
its public names lazily, and a command loads only the modules it runs."""

import json
import os
import subprocess
import sys

import moddata

SRC = os.path.dirname(os.path.dirname(os.path.abspath(moddata.__file__)))
SEMION = os.path.join(os.path.dirname(__file__), "data", "semion.json")

# the public names of the package, by the submodule that defines them
PUBLIC = {
    "cyclo": [
        "CycloNum", "galois_apply", "is_rational", "jacobi_symbol",
        "lift_conductor", "rational", "root_of_unity",
        "root_of_unity_exponent", "root_of_unity_order", "sqrt_integer",
    ],
    "datum": [
        "DatumReport", "ModularDatum", "derive_report", "kronecker_product",
        "power_identity_check", "validate_axioms",
        "verify_structural_identities",
    ],
    "fusion": [
        "FusionElement", "FusionTable", "fusion_coefficients", "idempotents",
        "multiply", "verify_idempotent_laws", "verify_ring_homomorphisms",
        "xi_evaluate",
    ],
    "galois": [
        "FusionSymbolTable", "GaloisPermutation",
        "arithmetic_divisibility_checks", "definition_of_24_check",
        "fusion_symbol", "fusion_symbol_analysis", "fusion_symbol_table",
        "index_action", "is_galois_datum", "odd_sign_analysis",
        "relact_check", "verify_action_laws", "verlinde_field_index",
    ],
    "extension": [
        "CongruenceReport", "ExtendedDatum", "SL2Mod", "additive_charge",
        "congruence_classify", "d_matrix", "enumerate_charges",
        "enumerate_ranks", "extension_family", "extension_family_check",
        "factor_check", "homogeneous_matrices", "lift_search",
        "make_extension", "sl2_enumerate",
    ],
    "constructors": [
        "CocycleFn", "classical_gauss_sum", "cocycle_omega", "radford_datum",
        "semion_datum", "su2_datum", "trivial_datum", "verify_3cocycle",
        "verify_gauss_lemma",
    ],
    "cli": [
        "AnalysisBundle", "build_analysis", "load_datum", "parse_datum",
        "serialize_datum", "serialize_datum_text",
    ],
}
SUBMODULES = [
    "cli", "constructors", "cyclo", "datum", "extension", "fusion", "galois",
    "linalg",
]
UNUSED_BY_CONGRUENCE = {"moddata.fusion", "moddata.galois", "moddata.constructors"}


def fresh(code: str):
    """Run ``code`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_command(argv):
    """(exit code, moddata modules loaded) after one main(argv)."""
    return fresh(
        "import io, json, sys\n"
        "from moddata.cli import main\n"
        f"code = main({argv!r}, out=io.StringIO())\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        " if m.startswith('moddata'))]))\n"
    )


def test_importing_the_package_loads_no_submodule():
    loaded = fresh(
        "import json, sys, moddata\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('moddata.')]))\n"
    )
    assert loaded == []


def test_congruence_and_lift_search_load_only_what_they_run():
    for argv in (
        ["congruence", SEMION, "--level", "4"],
        ["lift-search", SEMION, "--level", "8"],
    ):
        code, loaded = modules_after_command(argv)
        assert code == 0
        assert "moddata.extension" in loaded
        assert not UNUSED_BY_CONGRUENCE & set(loaded), (argv, loaded)


def test_analyze_loads_fusion_and_galois():
    code, loaded = modules_after_command(["analyze", SEMION])
    assert code == 0
    assert {"moddata.fusion", "moddata.galois"} <= set(loaded)


def test_analyze_on_a_datum_file_does_not_load_constructors():
    # ten of the eleven modules: the Gauss sums of galois come from cyclo
    code, loaded = modules_after_command(["analyze", SEMION])
    assert code == 0
    assert "moddata.constructors" not in loaded
    assert len(loaded) == 10


def test_no_command_imports_dataclasses_or_inspect():
    # the value types are plain classes: dataclasses, and the inspect it
    # imports, cost more start-up than the package's own modules
    for argv in (["congruence", SEMION, "--level", "4"], ["analyze", SEMION]):
        code, loaded = fresh(
            "import io, json, sys\n"
            "import moddata.cli\n"
            f"code = moddata.cli.main({argv!r}, out=io.StringIO())\n"
            "print(json.dumps([code, sorted({'dataclasses', 'inspect'}"
            " & set(sys.modules))]))\n"
        )
        assert (code, loaded) == (0, []), argv


def test_all_is_the_pinned_list():
    names = fresh("import json, moddata; print(json.dumps(moddata.__all__))")
    expected = SUBMODULES + [n for names in PUBLIC.values() for n in names]
    assert names == expected + ["__version__"]


def test_each_public_name_is_its_submodules_object():
    mismatched = fresh(
        "import importlib, json, sys, moddata\n"
        f"public = {PUBLIC!r}\n"
        "bad = [name for module, names in public.items() for name in names\n"
        "       if getattr(moddata, name)\n"
        "       is not getattr(importlib.import_module('moddata.' + module), name)]\n"
        f"bad += [m for m in {SUBMODULES!r}\n"
        "        if getattr(moddata, m) is not sys.modules['moddata.' + m]]\n"
        "print(json.dumps(bad))\n"
    )
    assert mismatched == []


def test_star_import_binds_exactly_all():
    bound, names = fresh(
        "import json, sys\n"
        "before = set(globals())\n"
        "from moddata import *\n"
        "bound = sorted(set(globals()) - before - {'before'})\n"
        "print(json.dumps([bound, sorted(sys.modules['moddata'].__all__)]))\n"
    )
    assert bound == names


def test_unknown_attribute_raises_attribute_error():
    outcome = fresh(
        "import json, moddata\n"
        "try:\n"
        "    moddata.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(moddata, 'nor_this')]))\n"
    )
    assert outcome == ["module 'moddata' has no attribute 'no_such_name'", False]
