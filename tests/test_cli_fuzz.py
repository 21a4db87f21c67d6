"""Hostile datum files and hostile arguments: one node of a valid file
replaced by a value of the wrong type or size, or stray tokens after a
valid command, must end in a documented exit code with at most one line
on stderr, never a usage block, a traceback or a hang."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from moddata import cli
from moddata.cli import serialize_datum
from moddata.constructors import radford_datum, semion_datum

_FILES = {
    "semion": serialize_datum(semion_datum()),
    "radford3": serialize_datum(radford_datum(3)),
}


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _paths(child, path + (idx,))


_SITES = [(name, path) for name, obj in _FILES.items() for path in _paths(obj)]

_VALUES = [
    None, True, False, 0, -1, 1.5, "", [], {}, [1],
    "1e1000000",  # 10^1000000 is built in well under a second, then unprintable
    "1e100000000",  # building 10^100000000 takes minutes
    "7" * 3000,  # canonical and parsed, but its products are unprintable
    "9" * 5000,  # canonical, over the limit int() converts
]

_COMMANDS = [["validate"], ["analyze"], ["congruence", "--level", "4"]]

_S00 = ("S", 0, 0, "coeffs", 0)


def _replace(obj, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@settings(max_examples=40, deadline=None)
@given(
    site=st.sampled_from(_SITES),
    value=st.sampled_from(_VALUES),
    command=st.sampled_from(_COMMANDS),
)
@example(site=("semion", _S00), value="1e1000000", command=["validate"])
@example(site=("semion", _S00), value="1e100000000", command=["validate"])
@example(site=("semion", _S00), value="7" * 3000, command=["validate"])
@example(site=("semion", _S00), value="7" * 3000, command=["analyze"])
@example(
    site=("semion", _S00), value="7" * 3000, command=["congruence", "--level", "4"]
)
@example(site=("semion", ("star", "0")), value=[1], command=["validate"])
@example(site=("semion", ("S", 0, 0, "conductor")), value=True, command=["validate"])
@example(site=("semion", ("T", 1, "conductor")), value=True, command=["analyze"])
def test_mutated_datum_file_ends_in_a_documented_exit(site, value, command):
    name, path = site
    text = json.dumps(_replace(_FILES[name], path, value))
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "datum.json")
        with open(file, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command[0], file, "--json", *command[1:]], out=out)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()


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

# unknown flags, flags that take a value (left without one at the end),
# non-integers, negative and small numbers, an extra positional, and one
# that argparse prints unquoted; every value is cheap for every command
_TOKENS = [
    "--bogus", "-z", "--level", "--n", "--max-group-order", "--json",
    "x", "1.5", "-1", "0", "2", "gen:trivial", "a\nb",
]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(_EVERY_COMMAND),
    tokens=st.lists(st.sampled_from(_TOKENS), max_size=4),
)
@example(command=["validate", "gen:semion"], tokens=["--bogus"])
@example(command=["congruence", "gen:semion"], tokens=["--level", "x"])
@example(command=["gen", "semion"], tokens=["--json"])
@example(command=["symbols", "gen:semion"], tokens=["--max-group-order", "2"])
def test_hostile_arguments_end_in_a_documented_exit(command, tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(command + tokens, out=out)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert "usage:" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
