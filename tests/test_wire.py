"""The datum wire routes against their oracles: the whole-datum
json.dumps for printing, and a fresh read of every scalar node for
parsing."""

import io
import json
from math import gcd, lcm

import pytest

import oracles

from moddata import cli, cyclo
from moddata.constructors import radford_datum
from moddata.datum import ModularDatum


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
    [1],
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
