"""The datum wire routes against their oracles: the whole-datum
json.dumps for printing, and a fresh read of every scalar node for
parsing; and the one JSON writer, cli.write_json, against json.dumps."""

import gc
import io
import json
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from moddata import cli, cyclo
from moddata.analysis import build_analysis
from moddata.constructors import radford_datum
from moddata.datum import ModularDatum
from moddata.errors import SchemaError
from moddata.report import jsonable


def _scalars(d):
    return [*(x for row in d.s_matrix for x in row), *d.t_diag]


def _entries(d):
    return [(x.conductor, x.nums, x.den) for x in _scalars(d)]


def _conjugates(d):
    """d and every Galois conjugate of it, entry by entry."""
    n = lcm(*(x.conductor for x in _scalars(d)))
    for q in range(1, n + 1):
        if gcd(q, n) == 1:
            yield ModularDatum(
                labels=d.labels,
                unit=d.unit,
                star=d.star,
                s_matrix=tuple(
                    tuple(cyclo.galois_apply(x, q) for x in row)
                    for row in d.s_matrix
                ),
                t_diag=tuple(cyclo.galois_apply(x, q) for x in d.t_diag),
            )


def _assert_routes_agree(d):
    text = cli.serialize_datum_text(d)
    assert text == oracles.oracle_serialize_datum_text(d)
    obj = json.loads(text)
    parsed = cli.datum_from_obj(obj)
    assert _entries(parsed) == _entries(oracles.oracle_datum_from_obj(obj))
    assert _entries(parsed) == _entries(d)


@pytest.mark.parametrize("name,d", oracles.built_in_data())
def test_wire_routes_match_oracles_on_every_conjugate(name, d):
    for conjugate in _conjugates(d):
        _assert_routes_agree(conjugate)


def test_wire_routes_match_oracles_on_labels_that_need_escaping():
    d = radford_datum(5)
    labels = ("é", '"', "\\", "\n", "\x00")
    _assert_routes_agree(
        ModularDatum(
            labels=labels,
            unit=labels[0],
            star=d.star,
            s_matrix=d.s_matrix,
            t_diag=d.t_diag,
        )
    )


def test_each_distinct_node_is_read_once(monkeypatch):
    obj = cli.serialize_datum(radford_datum(9))
    nodes = [*(x for row in obj["S"] for x in row), *obj["T"]]
    distinct = {json.dumps(x) for x in nodes}
    calls = []
    real = cyclo.from_json
    monkeypatch.setattr(cyclo, "from_json", lambda x: calls.append(1) or real(x))
    cli.datum_from_obj(obj)
    assert len(calls) == len(distinct) < len(nodes)


def _with_int_coeffs(node):
    return {"conductor": node["conductor"], "coeffs": [int(c) for c in node["coeffs"]]}


def test_an_integer_coefficient_file_is_read_once_per_distinct_node(monkeypatch):
    obj = cli.serialize_datum(radford_datum(9))
    obj["S"] = [[_with_int_coeffs(x) for x in row] for row in obj["S"]]
    obj["T"] = [_with_int_coeffs(x) for x in obj["T"]]
    nodes = [*(x for row in obj["S"] for x in row), *obj["T"]]
    distinct = {json.dumps(x) for x in nodes}
    calls = []
    real = cyclo.from_json
    monkeypatch.setattr(cyclo, "from_json", lambda x: calls.append(1) or real(x))
    assert _entries(cli.datum_from_obj(obj)) == _entries(radford_datum(9))
    assert len(calls) == len(distinct) < len(nodes)


@pytest.mark.parametrize("first", ["int", "str"])
def test_an_integer_node_and_its_string_twin_read_alike(first):
    d = radford_datum(3)
    obj = cli.serialize_datum(d)
    # S[0][1] and S[1][0] hold one value; the first or the second in
    # document order is written with ints
    node = obj["S"][0][1] if first == "int" else obj["S"][1][0]
    node["coeffs"] = [int(c) for c in node["coeffs"]]
    assert obj["S"][0][1]["coeffs"] != obj["S"][1][0]["coeffs"]
    parsed = cli.datum_from_obj(obj)
    assert _entries(parsed) == _entries(oracles.oracle_datum_from_obj(obj))
    assert _entries(parsed) == _entries(d)


@pytest.mark.parametrize("where", ["S", "T"])
def test_the_path_argument_is_taken_literally(where):
    obj = cli.serialize_datum(radford_datum(3))
    if where == "S":
        obj["S"][1][2] = {"conductor": 3, "coeffs": ["1/0", "0"]}
        bad = "$[{0}].S[1][2]"
    else:
        obj["T"][2] = None
        bad = "$[{0}].T[2]"
    with pytest.raises(SchemaError) as exc:
        cli.datum_from_obj(obj, path="$[{0}]")
    assert exc.value.path == bad


# a coefficient of any JSON kind, among them spellings of a valid one
_COEFFS = st.one_of(
    st.sampled_from(["0", "1", "-1", "01", " 1", "1/1", "2/2", "1e0", "1/0"]),
    st.integers(-2, 2),
    st.booleans(),
    st.floats(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


def _twins(c: str):
    """The values that equal the integer coefficient c, or spell it."""
    v = int(c)
    return st.sampled_from([v, float(v), c, *([bool(v)] if v in (0, 1) else [])])


def _read_outcome(route, obj):
    try:
        return _entries(route(obj))
    except SchemaError as exc:
        return exc.path, exc.message


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hostile_coefficients_get_the_oracle_outcome(data):
    # radford 5 has 30 nodes with 5 distinct values; every node of some
    # values and some other nodes are rewritten with integers, then some
    # coefficients are replaced
    obj = cli.serialize_datum(radford_datum(5))
    nodes = [*(x for row in obj["S"] for x in row), *obj["T"]]
    values = sorted({json.dumps(x) for x in nodes})
    chosen = data.draw(st.sets(st.sampled_from(values)))
    picked = data.draw(st.lists(st.sampled_from(nodes), max_size=6))
    for node in nodes:
        if json.dumps(node) in chosen or any(node is x for x in picked):
            node["coeffs"] = [int(c) for c in node["coeffs"]]
    for _ in range(data.draw(st.integers(0, 4))):
        node = data.draw(st.sampled_from(nodes))
        index = data.draw(st.integers(0, len(node["coeffs"]) - 1))
        c = str(node["coeffs"][index])
        kinds = _COEFFS | _twins(c) if c in ("-1", "0", "1") else _COEFFS
        node["coeffs"][index] = data.draw(kinds)
    expected = _read_outcome(oracles.oracle_datum_from_obj, obj)
    assert _read_outcome(cli.datum_from_obj, obj) == expected


# a valid node, then a twin that equals it as raw Python values or that
# from_json reads alike, but that each route must judge on its own
_VALID = {"conductor": 1, "coeffs": [1]}
_TWINS = [
    {"conductor": True, "coeffs": [1]},
    {"conductor": 1, "coeffs": [True]},
    {"conductor": 1, "coeffs": [1.0]},
    {"conductor": 1.0, "coeffs": [1]},
    {"conductor": 1, "coeffs": [1], "extra": 0},
    {"conductor": 1, "coeffs": ["1/0"]},
    {"conductor": 1, "coeffs": ["1"]},
    {"conductor": 1, "coeffs": [1, 0]},
    {"conductor": 1, "coeffs": [[1]]},
    [1],
    [{}],
]


def _run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("twin", _TWINS, ids=json.dumps)
@pytest.mark.parametrize("where", ["S", "T"])
def test_hostile_twin_gets_the_oracle_verdict(twin, where, tmp_path, monkeypatch, capsys):
    obj = cli.serialize_datum(radford_datum(3))
    obj["S"][0][0] = _VALID
    if where == "S":
        obj["S"][0][1] = twin
    else:
        obj["T"][0] = twin
    path = tmp_path / "twin.json"
    path.write_text(json.dumps(obj))
    results = []
    for route in (cli.datum_from_obj, oracles.oracle_datum_from_obj):
        monkeypatch.setattr(cli, "datum_from_obj", route)
        code, text = _run(["validate", str(path), "--json"])
        results.append((code, text, capsys.readouterr().err))
    assert results[0] == results[1]
    assert "Traceback" not in results[0][2]


# -- the JSON writer -----------------------------------------------------------


class _Dict(dict):
    pass


class _List(list):
    pass


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII and control characters included
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(_List),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4).map(_Dict),
        st.just([[], {}, [[]], {"": {}}]),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
def test_write_json_is_json_dumps_with_indent_2(tree):
    assert cli.write_json(tree) == json.dumps(tree, indent=2)


_CYCLO = st.builds(
    lambda m, k, q: cyclo.root_of_unity(m, k) + cyclo.from_rational(q, m),
    st.integers(1, 30),
    st.integers(0, 59),
    st.fractions(max_denominator=12),
) | st.sampled_from([cyclo.one(1), cyclo.one(5), cyclo.zero(12)])


def _cyclo_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_CYCLO | _SCALARS, _cyclo_containers, max_leaves=30))
def test_write_json_writes_cyclo_leaves_in_their_wire_form(tree):
    assert cli.write_json(tree) == json.dumps(jsonable(tree), indent=2)


def test_write_json_repeats_a_value_at_each_depth_and_conductor():
    # equal values at two conductors print differently, and one value at
    # two depths is padded to each
    z = cyclo.root_of_unity(3, 1)
    tree = {"a": [z, [z, cyclo.one(1), cyclo.one(3)]], "b": z, "c": (z,)}
    assert cli.write_json(tree) == json.dumps(jsonable(tree), indent=2)


@pytest.mark.parametrize(
    "tree", [object(), {"a": [1, object()]}, [{(1, 2): 3}], _Dict(x=cyclo.one(1))]
)
def test_write_json_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        cli.write_json(tree)


def test_each_distinct_entry_is_formatted_once_per_depth(monkeypatch):
    d = radford_datum(25)
    expected = oracles.oracle_serialize_datum_text(d)
    calls = []
    real = cyclo.to_json
    monkeypatch.setattr(cyclo, "to_json", lambda x: calls.append(1) or real(x))
    assert cli.serialize_datum_text(d) == expected
    distinct = {(x.conductor, x.den, x.nums) for row in d.s_matrix for x in row}
    distinct_t = {(x.conductor, x.den, x.nums) for x in d.t_diag}
    assert len(calls) <= len(distinct) + len(distinct_t) < d.size**2


def _analysis_text():
    payload = build_analysis(cli.load_datum("gen:semion")).to_json()
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["gen", "radford", "--n", "7"],
         lambda: oracles.oracle_serialize_datum_text(radford_datum(7))),
        (["analyze", "gen:semion", "--json"], _analysis_text),
    ],
    ids=["gen", "analyze"],
)
def test_commands_never_run_the_pure_python_indent_encoder(argv, expected, monkeypatch):
    text = expected()

    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)  # the patch is the one json.dumps reaches
    assert _run(argv) == (0, text)


def test_write_json_leaves_no_garbage_for_the_cycle_collector():
    # its parts are freed when it returns, not at the next collection
    tree = cli._datum_tree(radford_datum(5))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        cli.write_json(tree)
        cli.write_json({"a": [1, {"b": None}], "c": tree})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_write_json_writes_an_analysis_payload_without_json_dumps(monkeypatch):
    # its booleans and nulls are written by the writer itself; the bytes
    # are json.dumps's, taken before the count starts
    expected = _analysis_text()
    calls = []
    real = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert _run(["analyze", "gen:semion", "--json"]) == (0, expected)
    assert calls == []
