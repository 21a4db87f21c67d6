import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from moddata import cli, constructors, cyclo
from moddata.analysis import build_analysis
from moddata.cli import (
    datum_from_obj,
    load_datum,
    parse_datum,
    serialize_datum,
    serialize_datum_text,
)
from moddata.constructors import radford_datum, semion_datum
from moddata.datum import ModularDatum, kronecker_product
from moddata.errors import SchemaError
from moddata.report import jsonable

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "semion.json")


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_golden_semion_file_round_trip():
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert serialize_datum_text(semion_datum()) == text
    parsed = parse_datum(text)
    sem = semion_datum()
    assert parsed.labels == sem.labels and parsed.star == sem.star
    for i in range(2):
        assert parsed.t_diag[i] == sem.t_diag[i]
        for j in range(2):
            assert parsed.s_matrix[i][j] == sem.s_matrix[i][j]


def test_parse_serialize_round_trip_radford():
    d = radford_datum(5)
    text = serialize_datum_text(d)
    parsed = parse_datum(text)
    assert parsed.labels == d.labels
    for i in range(5):
        assert parsed.t_diag[i] == d.t_diag[i]
        for j in range(5):
            assert parsed.s_matrix[i][j] == d.s_matrix[i][j]


def test_parse_rejects_non_involutive_star():
    obj = serialize_datum(semion_datum())
    obj["star"] = {"0": "1", "1": "0"}
    obj["unit"] = "0"
    # 0 -> 1 -> 0 is an involution; break it by a non-permutation map
    obj["star"] = {"0": "1", "1": "1"}
    with pytest.raises(SchemaError) as err:
        datum_from_obj(obj)
    assert "star" in str(err.value)


def test_parse_rejects_bad_shapes():
    obj = serialize_datum(semion_datum())
    obj["T"] = obj["T"][:1]
    with pytest.raises(SchemaError) as err:
        datum_from_obj(obj)
    assert err.value.path == "$.T"
    obj = serialize_datum(semion_datum())
    obj["S"][0][1]["coeffs"] = ["1", "2", "3"]
    with pytest.raises(SchemaError) as err:
        datum_from_obj(obj)
    assert err.value.path == "$.S[0][1]"


def test_schema_files_ship_with_package():
    root = os.path.dirname(cli.__file__)
    for name in ("datum.schema.json", "bundle.schema.json"):
        with open(os.path.join(root, "schemas", name), encoding="utf-8") as fh:
            schema = json.load(fh)
        assert "$id" in schema


def test_gen_pseudo_paths():
    assert load_datum("gen:semion").labels == ("0", "1")
    assert load_datum("gen:trivial").size == 1
    assert load_datum("gen:radford:5").size == 5
    assert load_datum("gen:su2:3").size == 4
    with pytest.raises(SchemaError):
        load_datum("gen:unknown")


def test_cli_json_matches_library_bundle(monkeypatch):
    monkeypatch.delenv(cli.ENV_MAX_GROUP_ORDER, raising=False)
    monkeypatch.delenv(cli.ENV_CONDUCTOR_LIMIT, raising=False)
    code, text = run_cli(["analyze", "gen:semion", "--json"])
    assert code == 0
    direct = build_analysis(semion_datum())
    assert text == json.dumps(direct.to_json(), indent=2) + "\n"


def test_cli_json_with_extensions_matches_library(monkeypatch):
    monkeypatch.delenv(cli.ENV_MAX_GROUP_ORDER, raising=False)
    code, text = run_cli(["analyze", "gen:semion", "--extensions", "--json"])
    assert code == 0
    direct = build_analysis(semion_datum(), extensions=True)
    assert text == json.dumps(direct.to_json(), indent=2) + "\n"


def test_cli_validate_exit_codes(tmp_path):
    code, _ = run_cli(["validate", "gen:semion"])
    assert code == 0
    # corrupt the Dehn entries: order-8 twist fails the axioms
    obj = serialize_datum(semion_datum())
    obj["T"][1] = cyclo.to_json(cyclo.root_of_unity(8, 1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _ = run_cli(["validate", str(bad)])
    assert code == 1


def test_cli_usage_errors():
    code, _ = run_cli(["validate", "/nonexistent/file.json"])
    assert code == 2
    code, _ = run_cli(["validate", "gen:unknown"])
    assert code == 2


def test_cli_resource_bound_exit():
    code, _ = run_cli(
        ["congruence", "gen:semion", "--level", "24",
         "--max-group-order", "100"]
    )
    assert code == 3
    # no semion extension passes the Dehn filter at 23, but the bound holds
    code, _ = run_cli(
        ["lift-search", "gen:semion", "--level", "23",
         "--max-group-order", "100"]
    )
    assert code == 3


@pytest.mark.parametrize("command", ["congruence", "lift-search"])
@pytest.mark.parametrize("level", ["0", "-4"])
def test_cli_nonpositive_level_is_usage_error(command, level, capsys):
    code, text = run_cli([command, "gen:semion", "--level", level])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --level")


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_cli_nonpositive_conductor_limit_is_usage_error(limit, capsys):
    code, text = run_cli(["validate", "gen:semion", "--conductor-limit", limit])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --conductor-limit")


def test_conductor_limit_applies_to_cached_tables(capsys):
    # the first call caches the conductor-7 tables under the default limit
    assert run_cli(["gauss-sum", "--n", "7"])[0] == 0
    code, _ = run_cli(["gauss-sum", "--n", "7", "--conductor-limit", "5"])
    assert code == 3
    assert "conductor 7 exceeds limit 5" in capsys.readouterr().err


def test_main_restores_the_conductor_limit():
    before = cyclo.get_conductor_limit()
    assert run_cli(["gauss-sum", "--n", "7", "--conductor-limit", "5"])[0] == 3
    assert cyclo.get_conductor_limit() == before
    assert run_cli(["gauss-sum", "--n", "7"])[0] == 0


def test_conductor_limit_of_main_stays_in_its_thread(monkeypatch):
    # hold main inside its command, under its limit, while this thread
    # multiplies at a conductor over that limit
    entered, release = threading.Event(), threading.Event()
    compute = constructors.classical_gauss_sum

    def held(n, multiplier=1):
        entered.set()
        assert release.wait(30)
        return compute(n, multiplier)

    monkeypatch.setattr(constructors, "classical_gauss_sum", held)
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        run_cli(["gauss-sum", "--n", "3", "--conductor-limit", "5"])[0]
    ))
    worker.start()
    try:
        assert entered.wait(30)
        product = cyclo.root_of_unity(7, 1) * cyclo.root_of_unity(7, 2)
    finally:
        release.set()
        worker.join(30)
    assert not worker.is_alive()
    assert product == cyclo.root_of_unity(7, 3)
    assert codes == [0]


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    obj = serialize_datum(semion_datum())
    obj["S"][0][0]["coeffs"][0] = "1/0"
    path = tmp_path / "zero-den.json"
    path.write_text(json.dumps(obj))
    code, text = run_cli(["validate", str(path)])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: $.S[0][0]: ")


@pytest.mark.parametrize("name", [cli.ENV_MAX_GROUP_ORDER, cli.ENV_CONDUCTOR_LIMIT])
def test_cli_malformed_env_is_usage_error(name, monkeypatch, capsys):
    monkeypatch.setenv(name, "12k")
    code, text = run_cli(["validate", "gen:semion"])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and name in err


def test_cli_congruence_semion_level_4():
    code, text = run_cli(["congruence", "gen:semion", "--level", "4", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["projective"]["factors"] is True
    assert payload["lift_search"]["surviving"] == 0


def test_cli_congruence_projective_needs_no_lift_search():
    # SU(2)_3 has no integer global dimension, so it has no ranks to lift
    # with; --projective still decides the raw matrices
    code, text = run_cli(["congruence", "gen:su2:3", "--projective", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["projective"]["factors"] is True
    assert "lift_search" not in payload


def test_cli_congruence_without_projective_needs_ranks(capsys):
    code, text = run_cli(["congruence", "gen:su2:3"])
    assert code == 1
    assert text == ""
    _one_line_error(
        capsys, "error: ranks require a positive integer global dimension"
    )


def test_cli_lift_search():
    code, text = run_cli(["lift-search", "gen:semion", "--level", "8", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["surviving"] == 4


def test_cli_extensions_listing():
    code, text = run_cli(["extensions", "gen:semion", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert len(payload["extensions"]) == 12
    charges = sorted(
        e["additive_charge_mod_24"] for e in payload["extensions"]
    )
    assert charges == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23]


def test_cli_fusion_table_text():
    code, text = run_cli(["fusion-table", "gen:semion"])
    assert code == 0
    assert "N[0, -, -]" in text


def test_cli_symbols():
    code, text = run_cli(["symbols", "gen:radford:3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["modulus"] == 3
    assert payload["passed"] is True


def test_cli_gauss_sum():
    code, text = run_cli(["gauss-sum", "--n", "7", "--q", "3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["jacobi_symbol"] == -1
    assert payload["twist_matches_jacobi"] is True


def test_cli_cocycle():
    code, text = run_cli(["cocycle", "--n", "3", "--check", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["cocycle_identity"] is True


def test_cli_cocycle_check_runs_the_checker_once(monkeypatch):
    calls = []
    check = constructors.verify_3cocycle

    def counting(c):
        calls.append(c.n)
        return check(c)

    monkeypatch.setattr(constructors, "verify_3cocycle", counting)
    code, text = run_cli(["cocycle", "--n", "6", "--check", "--json"])
    assert code == 0
    assert json.loads(text)["cocycle_identity"] is True
    assert calls == [6]
    calls.clear()
    assert run_cli(["cocycle", "--n", "6", "--json"])[0] == 0
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("check", [False, True])
def test_cli_cocycle_json_is_the_payload_json_dumps_prints(n, check):
    c = constructors.cocycle_omega(n)
    r = range(n)
    payload = {
        "n": n,
        "zeta_exponent": 1,
        "table": [[[c.value(i, j, k) for k in r] for j in r] for i in r],
    }
    if check:
        payload.update(cocycle_identity=True, witness=None, passed=True)
    argv = ["cocycle", "--n", str(n), "--json"] + ["--check"] * check
    assert run_cli(argv) == (0, json.dumps(jsonable(payload), indent=2) + "\n")


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cli_cocycle_text_prints_the_table_json_dumps_prints(n):
    table = constructors.cocycle_omega(n).table
    code, text = run_cli(["cocycle", "--n", str(n)])
    assert code == 0
    assert f"table = {json.dumps(jsonable(table))}" in text.splitlines()


def test_cli_cocycle_json_peaks_under_three_times_its_output():
    # the table goes to the writer as values: no JSON-ready copy of its
    # n^3 entries, and each distinct root of unity is formatted once
    class Count:
        size = 0

        def write(self, text):
            self.size += len(text)

    out = Count()
    tracemalloc.start()
    try:
        assert cli.main(["cocycle", "--n", "24", "--json"], out=out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == 3013781
    assert peak < 3 * out.size


def test_cli_gen_product(tmp_path):
    sem = tmp_path / "sem.json"
    code, text = run_cli(["gen", "semion"])
    assert code == 0
    sem.write_text(text)
    code, text = run_cli(["gen", "product", str(sem), "gen:trivial"])
    assert code == 0
    parsed = parse_datum(text)
    assert parsed.size == 2


def test_cli_gen_analyze_pipeline(tmp_path):
    code, text = run_cli(["gen", "radford", "--n", "3"])
    assert code == 0
    path = tmp_path / "r3.json"
    path.write_text(text)
    code, _ = run_cli(["analyze", str(path)])
    assert code == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; sys.exit(main(['validate', 'gen:trivial']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_conductor_limit_env_override():
    # a fresh process so the cyclotomic basis caches start empty
    env = dict(os.environ, MODDATA_CONDUCTOR_LIMIT="10")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; "
         "sys.exit(main(['gen', 'radford', '--n', '97']))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3
    assert "exceeds" in proc.stderr


def test_max_group_order_env_override():
    env = dict(os.environ, MODDATA_MAX_GROUP_ORDER="10")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; "
         "sys.exit(main(['congruence', 'gen:semion', '--level', '4']))"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 3


def test_cli_lift_search_default_level():
    code, text = run_cli(["lift-search", "gen:semion", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["level"] == 4 and payload["surviving"] == 0


def test_analyze_non_integral_datum_skips_galois_suite(tmp_path):
    # rescaling S by 1/2 keeps every axiom but destroys integrality
    import moddata.linalg as linalg
    from moddata.datum import ModularDatum

    sem = semion_datum()
    scaled = ModularDatum(
        sem.labels, sem.unit, sem.star,
        linalg.mat_scale(sem.s_matrix, cyclo.rational(1, 2)),
        sem.t_diag,
    )
    path = tmp_path / "half.json"
    path.write_text(json.dumps(serialize_datum(scaled)))
    code, text = run_cli(["analyze", str(path), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["report"]["integral"] is False
    assert "galois-suite" in payload["verdicts"]
    assert payload["verdicts"]["galois-suite"]["passed"] is True


def test_fusion_element_dimension_mismatch():
    from moddata.errors import DimensionMismatch
    from moddata.fusion import basis_element, fusion_coefficients, multiply

    table = fusion_coefficients(semion_datum())
    with pytest.raises(DimensionMismatch):
        multiply(basis_element(3, 0), basis_element(3, 1), table)


_EVERY_COMMAND = [
    ["validate", "gen:semion"],
    ["analyze", "gen:semion"],
    ["fusion-table", "gen:semion"],
    ["galois-check", "gen:semion"],
    ["symbols", "gen:semion"],
    ["extensions", "gen:semion"],
    ["congruence", "gen:semion", "--level", "4"],
    ["lift-search", "gen:semion", "--level", "4"],
    ["gen", "semion"],
    ["gauss-sum", "--n", "3"],
    ["cocycle", "--n", "3"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=[a[0] for a in _EVERY_COMMAND])
@pytest.mark.parametrize("name", [cli.ENV_MAX_GROUP_ORDER, cli.ENV_CONDUCTOR_LIMIT])
def test_malformed_env_is_usage_error_for_every_command(name, argv, monkeypatch, capsys):
    # not an integer, or a bound below 1
    for value in ("12k", "0", "-5"):
        monkeypatch.setenv(name, value)
        code, text = run_cli(argv)
        assert code == 2, value
        assert text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err, value


def test_env_is_read_on_every_call(monkeypatch):
    argv = ["congruence", "gen:semion", "--level", "4"]
    monkeypatch.delenv(cli.ENV_MAX_GROUP_ORDER, raising=False)
    assert run_cli(argv)[0] == 0
    monkeypatch.setenv(cli.ENV_MAX_GROUP_ORDER, "10")
    assert run_cli(argv)[0] == 3
    monkeypatch.delenv(cli.ENV_MAX_GROUP_ORDER)
    assert run_cli(argv)[0] == 0
    # the conductor limit too, and a flag still beats the environment
    monkeypatch.setenv(cli.ENV_CONDUCTOR_LIMIT, "5")
    assert run_cli(["gauss-sum", "--n", "7"])[0] == 3
    assert run_cli(["gauss-sum", "--n", "7", "--conductor-limit", "7"])[0] == 0


def test_parser_is_built_once(monkeypatch):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli(["validate", "gen:trivial"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert calls == [1]


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["validate", "gen:radford:x"], "error: $: gen:radford order must be an integer"),
        (["validate", "gen:radford:4"], "error: cyclic datum requires odd"),
        (["validate", "gen:radford:0"], "error: cyclic datum requires odd"),
        (["gen", "radford", "--n", "4"], "error: cyclic datum requires odd"),
        (["gen", "radford", "--n", "5", "--zeta", "5"], "error: 5 is not a unit"),
        (["gauss-sum", "--n", "4", "--q", "2"], "error: 2 is not a unit modulo 4"),
        (["gauss-sum", "--n", "0"], "error: --n: must be positive, got 0"),
        (["cocycle", "--n", "0"], "error: --n: must be positive, got 0"),
        (["cocycle", "--n", "-2", "--check"], "error: --n: must be positive"),
        (["validate", "gen:su2"], "error: $: gen:su2 needs an integer level"),
        (["validate", "gen:su2:x"], "error: $: gen:su2 level must be an integer"),
        (["validate", "gen:su2:0"], "error: SU(2)_k requires a positive level"),
        # a gen: reference with a segment its generator does not take
        (["validate", "gen:semion:7"], "error: $: gen:semion takes no parameter"),
        (["validate", "gen:radford:5:9"], "error: $: gen:radford takes one integer order"),
        (["validate", "gen:trivial:x"], "error: $: gen:trivial takes no parameter"),
        # a bound below 1, as --conductor-limit 0 is
        (["analyze", "gen:semion", "--max-group-order", "0"],
         "error: --max-group-order: must be positive, got 0"),
        (["congruence", "gen:semion", "--level", "4", "--max-group-order", "-1"],
         "error: --max-group-order: must be positive, got -1"),
        (["validate", "gen:semion", "--conductor-limit", "0"],
         "error: --conductor-limit: must be positive, got 0"),
        # an argument the gen kind does not take
        (["gen", "trivial", "--n", "3"], "error: unrecognized arguments: --n 3"),
        (["gen", "semion", "--zeta", "5"], "error: unrecognized arguments: --zeta 5"),
        (["gen", "semion", "gen:trivial"],
         "error: unrecognized arguments: gen:trivial"),
        (["gen", "radford", "gen:semion", "--n", "5"],
         "error: unrecognized arguments: gen:semion"),
        (["gen", "product", "gen:semion", "gen:semion", "--zeta", "2"],
         "error: unrecognized arguments: --zeta 2"),
        (["gen", "semion", "--json"], "error: unrecognized arguments: --json"),
        # a search bound without the search that reads it
        (["analyze", "gen:semion", "--max-group-order", "1"],
         "error: --max-group-order: is read only with --extensions"),
    ],
)
def test_bad_arguments_are_usage_errors(argv, prefix, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    _one_line_error(capsys, prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "gen:semion", "--bogus"],  # an unknown flag
        ["congruence", "gen:semion", "--level", "x"],  # not an integer
        ["congruence", "gen:semion", "--level"],  # a flag with no value
        ["gauss-sum"],  # a missing required option
        ["validate"],  # a missing datum
        ["frobnicate", "gen:semion"],  # a bad choice
        [],  # no command
        ["gen"],  # no gen kind
        ["gen", "bogus"],
        ["gen", "radford"],
        ["gen", "product", "gen:semion"],
        ["gen", "product", "gen:semion", "gen:semion", "gen:trivial"],
        ["validate", "gen:semion", "a\nb"],  # argparse quotes no extra argument
    ],
)
def test_parser_errors_are_one_line(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2
    assert text == ""
    _one_line_error(capsys, "error: ")


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=[a[0] for a in _EVERY_COMMAND])
def test_only_the_searches_take_max_group_order(argv, capsys):
    # a value the flag's own type refuses: no command runs either way
    code, _ = run_cli(argv + ["--max-group-order", "x"])
    assert code == 2
    err = capsys.readouterr().err
    if argv[0] in ("analyze", "congruence", "lift-search"):
        assert err == "error: argument --max-group-order: invalid int value: 'x'\n"
    else:
        assert err == "error: unrecognized arguments: --max-group-order x\n"


@pytest.mark.parametrize(
    "argv", [["--help"], ["congruence", "--help"], ["gen", "radford", "-h"]]
)
def test_help_is_written_to_out(argv, capsys):
    code, text = run_cli(argv)
    assert code == 0
    assert text.startswith("usage: moddata " + " ".join(argv[:-1]))
    assert capsys.readouterr() == ("", "")


def _relabel(d, labels):
    return ModularDatum(
        tuple(labels), labels[d.o], d.star, d.s_matrix, d.t_diag
    )


def test_gen_product_with_colliding_labels_is_usage_error(tmp_path, capsys):
    # (0, "1,0") and ("0,1", 0) both make the label (0,1,0)
    paths = []
    for name, labels in (("a", ["0", "0,1"]), ("b", ["1,0", "0"])):
        obj = serialize_datum(_relabel(semion_datum(), labels))
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj))
    code, text = run_cli(["gen", "product", *map(str, paths)])
    assert code == 2
    assert text == ""
    _one_line_error(capsys, "error: labels must be distinct: '(0,1,0)' repeats")


@pytest.mark.parametrize(
    "ref",
    [
        f"gen:radford:{constructors.MAX_RANK + 1}",
        f"gen:su2:{constructors.MAX_RANK}",
        "gen:radford:4999",
    ],
)
def test_datum_over_the_rank_bound_is_resource_error(ref, capsys):
    # refused before anything of its size is built, so no memory bound is needed
    code, text = run_cli(["validate", ref])
    assert code == 3
    assert text == ""
    _one_line_error(capsys, "error: rank ")


def test_analyze_su2_skips_the_galois_suite_unless_integral():
    for k in range(1, 7):
        bundle = build_analysis(constructors.su2_datum(k))
        assert bundle.passed, k
        assert bundle.report.integral == (k == 1)
        assert ("galois-suite" in bundle.verdicts) == (k > 1)
        assert ("galois-action-laws" in bundle.verdicts) == (k == 1)


def test_directory_as_datum_path_is_usage_error(tmp_path, capsys):
    code, text = run_cli(["validate", str(tmp_path)])
    assert code == 2
    assert text == ""
    _one_line_error(capsys, "error: ")


def test_non_utf8_datum_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"labels": ["\xe9"]}')
    code, text = run_cli(["validate", str(path)])
    assert code == 2
    assert text == ""
    _one_line_error(capsys, "error: $: not UTF-8 text")


@pytest.mark.parametrize("command", [["validate"], ["gen", "product", "gen:semion"]])
def test_deeply_nested_json_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000)
    code, text = run_cli(command + [str(path)])
    assert code == 2
    assert text == ""
    _one_line_error(capsys, "error: $: invalid JSON: nested too deeply")


_HUGE = 2**61 - 1  # prime: factorising it by trial division never ends


def test_huge_conductor_in_datum_file_is_resource_error(tmp_path):
    obj = serialize_datum(load_datum("gen:trivial"))
    obj["S"][0][0] = {"conductor": _HUGE, "coeffs": ["1"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    # a fresh process with a time bound, so a regression fails, not hangs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; "
         f"sys.exit(main(['validate', {str(path)!r}]))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: $.S[0][0]: conductor {_HUGE} exceeds limit 100000\n"


def _run_capped(code, timeout):
    """Run code in a fresh interpreter whose address space is capped at
    1 GB, so that a table grown past its content fails the test."""
    pytest.importorskip("resource")
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
    return subprocess.run(
        [sys.executable, "-c", cap + code],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_square_root_at_a_prime_of_thousands_fits_in_memory():
    proc = _run_capped(
        "from moddata import cyclo; print(cyclo.sqrt_integer(2 * 1999).conductor)",
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "15992\n", "")


def _semion_at_9973(tmp_path, p=9973):
    """The semion with T[1] = z at the prime conductor p, 9973 unless
    given."""
    obj = serialize_datum(semion_datum())
    obj["T"][1] = {"conductor": p, "coeffs": ["0", "1"] + ["0"] * (p - 3)}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_validate_at_a_prime_conductor_of_thousands_fits_in_memory(tmp_path):
    path = _semion_at_9973(tmp_path)
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['validate', {path!r}]))",
        timeout=5,
    )
    assert proc.returncode == 1
    assert "FAIL axiom4-proportionality" in proc.stdout
    assert proc.stderr == ""


def test_symbols_at_a_prime_conductor_of_thousands_is_too_large(tmp_path):
    # the fusion symbols divide by the Gauss sum 1 + z, whose inverse at
    # degree 9972 is over cyclo.MAX_INVERSE_DEGREE
    path = _semion_at_9973(tmp_path)
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['symbols', {path!r}]))",
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: inverse at conductor 9973 needs 9970 products of degree 9972; "
        "the bound is degree 224\n"
    )


def test_symbols_refuse_before_taking_the_galois_images(tmp_path):
    # the 19996 images sigma_q(1 + z), of 19996 coefficients each, would
    # alone pass the 1 GB cap; the inverse of 1 + z is refused first
    path = _semion_at_9973(tmp_path, p=19997)
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['symbols', {path!r}]))",
        timeout=20,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: inverse at conductor 19997 needs 19994 products of degree 19996; "
        "the bound is degree 224\n"
    )


def test_galois_check_at_a_prime_conductor_of_thousands_fails_its_checks(tmp_path):
    # S is rational, so the 9972 units make no image of it and the action
    # laws pass; the datum is not Galois, as its axiom 4 fails
    path = _semion_at_9973(tmp_path)
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['galois-check', {path!r}]))",
        timeout=10,
    )
    assert proc.returncode == 1
    assert "[PASS] galois-action-laws\n" in proc.stdout
    assert "FAIL twist-condition ; witness: axiom4-proportionality" in proc.stdout
    assert proc.stderr == ""


def _three_labels(tmp_path, s_matrix, t_diag):
    """A file of the three labels 0, 1, 2, each its own dual, with unit 0."""
    d = ModularDatum(("0", "1", "2"), "0", (0, 1, 2), s_matrix, t_diag)
    path = tmp_path / "three.json"
    path.write_text(json.dumps(serialize_datum(d)))
    return str(path)


def test_symbols_refuse_gauss_images_past_the_coefficient_bound(tmp_path):
    # T = (z, z, -z) for z of order 9973 and S all ones: g = z inverts at
    # no cost, but its 9972 images modulo N = 19946 would hold 9972^2
    # coefficients
    one, z = cyclo.one(1), cyclo.root_of_unity(9973, 1)
    path = _three_labels(tmp_path, ((one,) * 3,) * 3, (z, z, -z))
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['symbols', {path!r}]))",
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the images of the Gauss sum under the 9972 units modulo 19946 "
        "hold 99440784 coefficients; the bound is 10000000\n"
    )


def test_field_index_refuses_images_of_s_past_the_coefficient_bound(tmp_path):
    # S = [[1, 1, 1], [1, a, b], [1, b, a]] for the two quadratic Gauss
    # periods a, b at 9973, and T = (1, z, z): each of the 9972 units
    # modulo N_o = 9973 would make an image of 9 * 9972 coefficients
    p = 9973
    one, z = cyclo.one(1), cyclo.root_of_unity(p, 1)
    # a = sum of z^k over the squares k, in the basis 1, z, ..., z^(p-2),
    # where z^(p-1) = -(1 + ... + z^(p-2)) and p - 1 is a square
    squares = {k * k % p for k in range(1, p)}
    a = cyclo.from_json(
        {"conductor": p, "coeffs": [str((k in squares) - 1) for k in range(p - 1)]}
    )
    b = -1 - a
    path = _three_labels(tmp_path, ((one, one, one), (one, a, b), (one, b, a)),
                         (one, z, z))
    message = (
        "error: the images of S under the 9972 units modulo 9973 hold "
        "894967056 coefficients; the bound is 10000000\n"
    )
    proc = _run_capped(
        "import sys; from moddata import cli, galois\n"
        "from moddata.errors import TooLarge\n"
        "try:\n"
        f"    galois.verlinde_field_index(cli.load_datum({path!r}))\n"
        "except TooLarge as exc:\n"
        "    print(f'error: {exc}', file=sys.stderr)\n"
        "    sys.exit(3)\n",
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)
    # galois-check meets the same bound first in the action laws
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['galois-check', {path!r}]))",
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


@pytest.mark.parametrize("argv,size", [
    (["--n", "100", "--json"], 100**3 * 40),  # the table
    (["--n", "20", "--check"], 20**4 * 8),  # the identities, table printed or not
])
def test_cocycle_over_its_bound_is_refused_before_it_is_built(argv, size):
    # unrefused, the table of order 100 ends in a MemoryError traceback
    # under a 1 GB cap
    proc = _run_capped(
        "import sys; from moddata.cli import main; "
        f"sys.exit(main(['cocycle', *{argv!r}]))",
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    bound = constructors.MAX_COCYCLE_COEFFICIENTS
    assert proc.stderr == (
        f"error: cocycle of order {argv[1]} needs {size} coefficients; the bound is {bound}\n"
    )


@pytest.mark.parametrize("command", ["gauss-sum", "cocycle"])
def test_huge_order_is_resource_error(command):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; "
         f"sys.exit(main([{command!r}, '--n', '{_HUGE}']))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and "exceeds limit" in proc.stderr


def test_cyclo_constructors_check_the_limit_before_factorising(monkeypatch):
    from moddata.errors import TooLarge

    def factorising(m):
        raise AssertionError(f"euler_phi({m}) ran before the limit check")

    monkeypatch.setattr(cyclo, "euler_phi", factorising)
    with pytest.raises(TooLarge):
        cyclo.from_json({"conductor": _HUGE, "coeffs": ["1"]})
    with pytest.raises(TooLarge):
        cyclo.CycloNum(_HUGE, [1])
    with pytest.raises(TooLarge):
        cyclo.root_of_unity(_HUGE, 1)


def _semion_with(tmp_path, *path_and_value):
    obj = serialize_datum(semion_datum())
    *path, value = path_and_value
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "hostile.json"
    file.write_text(json.dumps(obj))
    return str(file)


@pytest.mark.parametrize(
    "path_and_value,prefix",
    [
        (("star", "0", [1]), "error: $.star.0: maps to unknown label [1]"),
        (("S", 0, 0, "conductor", True), "error: $.S[0][0]: conductor must be"),
        (("S", 0, 0, "coeffs", 0, "1e1000000"), "error: $.S[0][0]: coefficient needs"),
        (("S", 0, 0, "coeffs", 0, "1e100000000"), "error: $.S[0][0]: coefficient needs"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "analyze", "congruence"])
def test_malformed_datum_node_is_usage_error(
    path_and_value, prefix, command, tmp_path, capsys
):
    code, text = run_cli([command, _semion_with(tmp_path, *path_and_value)])
    assert code == 2
    assert text == ""
    _one_line_error(capsys, prefix)


@pytest.mark.parametrize(
    "argv", [["validate"], ["analyze"], ["congruence", "--level", "4"]]
)
def test_value_too_long_to_print_is_resource_error(argv, tmp_path, capsys):
    # a canonical 3000-digit coefficient is read, but its products have
    # more digits than str() converts
    file = _semion_with(tmp_path, "S", 0, 0, "coeffs", 0, "7" * 3000)
    code, text = run_cli([argv[0], file, "--json", *argv[1:]])
    assert code == 3
    assert text == ""
    _one_line_error(capsys, "error: a coefficient has more than ")


def test_huge_level_is_resource_error():
    # refused before the order formula factorises the level
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from moddata.cli import main; "
         f"sys.exit(main(['congruence', 'gen:semion', '--level', '{_HUGE}']))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        f"error: group order at modulus {_HUGE} exceeds bound 1000000\n"
    )


# sha256 of stdout and the exit code of the commands that run the projective
# check and the lift search, on five data files: pinned on the code before the
# check was put behind one function, so any change to these bytes shows here
_PINNED_COMMANDS = (
    ("analyze", "--extensions", "--json"),
    ("congruence",),
    ("congruence", "--json"),
    ("congruence", "--level", "2"),
    ("congruence", "--level", "2", "--json"),
    ("lift-search", "--json"),
)
_PINNED_DATA = {
    "trivial": constructors.trivial_datum,
    "semion": semion_datum,
    "radford3": lambda: radford_datum(3),
    "radford5-zeta2": lambda: radford_datum(5, 2),
    "semion-semion": lambda: kronecker_product(semion_datum(), semion_datum()),
}
_PINNED_BYTES = {
    "trivial": (
        (0, "767e45618c258d67cbac61481188e67c56e3e3164715312ec5555ec2d98b1941"),
        (0, "bb3dc51a7e13853867dade2cd8d6d8440f8e28a0023b335103fb929b6ea53876"),
        (0, "d8cfb2e7539e6c7ef278336367abec2b73a822a6b7cd30f4dfef40916cf92062"),
        (0, "e80f2c6dd38e9a23e826f9eda860bc80d41facf70ba9f1f1eb1c4918f7343f40"),
        (0, "27bf521b60d2e2767cc3fdc6e59227b3fff6317094f3022ed6d239da61214158"),
        (0, "0f5bc78273e5cc110bfec185fb22ddb5c4f890b8555cd818897a2b5a33ac628d"),
    ),
    "semion": (
        (0, "2fa9efd17386c2e2fd6660befb204de86e54aae99849461b770bc50578dd74db"),
        (0, "fe38eb7b538ecff9dd997436d593021e8b826f441eb789dc56701f220066c870"),
        (0, "ac2d7e048ef8b3463087ae2946cf5b106d84e6f361dc9286284febd358757ab3"),
        (1, "01fe568c70704d0c143c2295754fb1ae2a4d7f458d0e4727c977fd5cd70a7c19"),
        (1, "27ed956695a856621091395136b7bde457638f9fc9e46a7a5313014f8413920e"),
        (0, "666cee06b5fa06a1b3188e9ba0b0ebc76308b08841b40bb597d2163accd0b043"),
    ),
    "radford3": (
        (0, "bba6322e597242554715a0e2ade160601715f1cf2e0c064b78ff89e1d2f7a093"),
        (0, "99b3f138fb410a360ba088bae348a72ec0610ae5acb5c99933b0762126f2d0eb"),
        (0, "293308671bf8a4d7cbf24e6a353f56310f3e68c4513eb1e66e177127e13b5d81"),
        (1, "d760647e300a07edd433897e5aad07a8329d91a6279ff3951308752a9aefcf59"),
        (1, "3110d6ed060de524a07a1ff7c9fc6855124f0dd8c88f23a221d78fc0ec98b5a4"),
        (0, "ef5a809a36bd7b6a1ac04e128a2cbe4ff3cd82e8fc5ea234f212ffa102237c85"),
    ),
    "radford5-zeta2": (
        (0, "31aef372e59ba43929e2cbafb2c640d3d2e8fc78d924b254be05d8c2928a83b2"),
        (0, "a2ed2d0207092f6a3fd1c8f9c3bb4b7a3d2ae7731502a1af49f102eb7a65e557"),
        (0, "953b9b83633882a64a2732eed81052931387b98c19d7203365162966887c0080"),
        (1, "abc5b0eb7d3bc3b88301db5f19a8ebf285a1c2151e8d1da38c76e09aeadefa1b"),
        (1, "d54cd41b869ff2d2a60213abe2a96e0e9714cd72ff2a4c92255d41b2befb5962"),
        (0, "78f36348704b312127509ae597e9503dca5abf4bd17f58371303ebdc7c80821e"),
    ),
    "semion-semion": (
        (0, "29b43cdb6bcc62baa610239066e8806f85aff7cbdd60c689f5bb71d1f96989d4"),
        (0, "d0165a3a117ede6cdbb1864b2ce66c13fa6290a92eff3226982bb33ac3747231"),
        (0, "59b776370e1640a1f8a44da8a9dc2223a2d00492bef2afd64a22d7d01a92f6a7"),
        (1, "28cf3c69c60a7eae067c46fda886010fc30ec3d1df23342b44390552c9f7b583"),
        (1, "e169b8c592c1502adde0abc9cc0cbd16fafa981995dc666acf692cc0cafdac21"),
        (0, "2c09213de0aa9b16b950a8e10fba36e7fb5cba28c6e81cf176987aa2e545f6ef"),
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_DATA))
def test_congruence_paths_print_the_pinned_bytes(name, tmp_path):
    path = str(tmp_path / f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_datum_text(_PINNED_DATA[name]()))
    got = []
    for command, *flags in _PINNED_COMMANDS:
        code, text = run_cli([command, path, *flags])
        got.append((code, hashlib.sha256(text.encode("utf-8")).hexdigest()))
    assert tuple(got) == _PINNED_BYTES[name]
