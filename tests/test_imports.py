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
    "datum": ["ModularDatum", "kronecker_product"],
    "axioms": [
        "DatumReport", "derive_report", "power_identity_check",
        "validate_axioms", "verify_structural_identities",
    ],
    "fusion": [
        "FusionElement", "FusionTable", "fusion_coefficients", "idempotents",
        "multiply", "verify_idempotent_laws", "verify_ring_homomorphisms",
        "xi_evaluate",
    ],
    "galois": [
        "FusionSymbolTable", "GaloisPermutation",
        "arithmetic_divisibility_checks", "d_matrix",
        "definition_of_24_check", "fusion_symbol", "fusion_symbol_analysis",
        "fusion_symbol_table",
        "index_action", "is_galois_datum", "odd_sign_analysis",
        "relact_check", "verify_action_laws", "verlinde_field_index",
    ],
    "extension": [
        "CongruenceReport", "ExtendedDatum", "SL2Mod", "additive_charge",
        "enumerate_charges", "enumerate_ranks", "extension_family",
        "factor_check", "homogeneous_matrices", "lift_search",
        "make_extension", "sl2_enumerate",
    ],
    "constructors": [
        "CocycleFn", "classical_gauss_sum", "cocycle_omega", "radford_datum",
        "semion_datum", "su2_datum", "trivial_datum", "verify_3cocycle",
        "verify_gauss_lemma",
    ],
    "cli": [
        "load_datum", "parse_datum", "serialize_datum", "serialize_datum_text",
    ],
    "analysis": [
        "AnalysisBundle", "build_analysis", "congruence_classify",
        "extension_family_check",
    ],
}
SUBMODULES = [
    "cli", "constructors", "cyclo", "datum", "extension", "fusion", "galois",
    "linalg",
]
UNUSED_BY_CONGRUENCE = {
    "moddata.fusion", "moddata.galois", "moddata.constructors",
    "moddata.analysis", "moddata.axioms",
}
# the names that moved out of cli, datum, extension and linalg, by (old
# module, new home); each is defined in its new home only, and not found on its old module
MOVED = {
    ("cli", "analysis"): [
        "AnalysisBundle", "BUNDLE_SCHEMA", "_cmd_analyze", "_cmd_cocycle",
        "_cmd_extensions", "_cmd_fusion_table", "_cmd_galois_check",
        "_cmd_gauss_sum", "_cmd_gen", "_cmd_symbols", "_cmd_validate",
        "build_analysis",
    ],
    ("datum", "axioms"): [
        "DatumReport", "_axioms_1_to_4", "_gauss_sum_inverse",
        "_global_dimension_from_square", "derive_report",
        "power_identity_check", "require_valid", "validate_axioms",
        "verify_structural_identities",
    ],
    ("extension", "analysis"): [
        "CongruenceClassification", "congruence_classify",
        "extension_family_check",
    ],
    ("extension", "galois"): ["d_matrix"],
    ("linalg", "galois"): ["perm_matrix"],
}
# a bound on the source a cold congruence request compiles, where no
# bytecode is cached: the 8 modules it loads held 3,225 lines before the
# analysis half of cli and the axioms of datum moved out
MAX_CONGRUENCE_SOURCE_LINES = 2700


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


def test_a_cold_congruence_request_compiles_a_bounded_source():
    for argv in (
        ["congruence", SEMION, "--level", "4", "--json"],
        ["lift-search", SEMION, "--level", "8", "--json"],
    ):
        code, lines = fresh(
            "import io, json, sys\n"
            "from moddata.cli import main\n"
            f"code = main({argv!r}, out=io.StringIO())\n"
            "files = [m.__file__ for name, m in sys.modules.items()\n"
            "         if name == 'moddata' or name.startswith('moddata.')]\n"
            "lines = sum(len(open(f, encoding='utf-8').readlines()) for f in files)\n"
            "print(json.dumps([code, lines]))\n"
        )
        assert code == 0
        assert lines <= MAX_CONGRUENCE_SOURCE_LINES, (argv, lines)


def test_moved_names_are_found_in_their_new_modules_only():
    found = fresh(
        "import importlib, json\n"
        f"moved = {[[old, new, names] for (old, new), names in MOVED.items()]!r}\n"
        "found = [[hasattr(importlib.import_module('moddata.' + old), name),\n"
        "          hasattr(importlib.import_module('moddata.' + new), name)]\n"
        "         for old, new, names in moved for name in names]\n"
        "print(json.dumps(found))\n"
    )
    assert found == [[False, True]] * sum(map(len, MOVED.values()))


def test_forwarders_load_nothing_for_other_names():
    # ``from .datum import X`` asks hasattr(datum, "__path__"): cli and
    # datum answer it, and any name they do not define, without importing
    # another module
    flags, loaded, messages = fresh(
        "import json, sys\n"
        "import moddata.cli, moddata.datum\n"
        "before = set(sys.modules)\n"
        "flags = [hasattr(moddata.cli, '__path__'), hasattr(moddata.datum, '__path__')]\n"
        "messages = []\n"
        "for module in (moddata.cli, moddata.datum):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        messages.append(str(exc))\n"
        "print(json.dumps([flags, sorted(set(sys.modules) - before), messages]))\n"
    )
    assert flags == [False, False]
    assert loaded == []
    assert messages == [
        "module 'moddata.cli' has no attribute 'no_such_name'",
        "module 'moddata.datum' has no attribute 'no_such_name'",
    ]


def test_analyze_loads_fusion_and_galois():
    code, loaded = modules_after_command(["analyze", SEMION])
    assert code == 0
    assert {"moddata.fusion", "moddata.galois"} <= set(loaded)


def test_analyze_on_a_datum_file_does_not_load_constructors():
    # twelve of the thirteen modules: the Gauss sums of galois come from cyclo
    code, loaded = modules_after_command(["analyze", SEMION])
    assert code == 0
    assert "moddata.constructors" not in loaded
    assert len(loaded) == 12


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
