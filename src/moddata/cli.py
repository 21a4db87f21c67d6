"""Command-line front end and the datum wire format.

Commands are thin shells over the library: each one assembles the same
payload a direct library call produces and prints it as text or JSON.
Exit codes: 0 all asserted checks passed, 1 a check failed, 2 usage or
malformed input, 3 a resource bound was exceeded.

This module holds what a cold ``congruence`` or ``lift-search`` request
runs; ``main`` imports ``moddata.analysis``, which holds every other
command, only when one of them runs (see the README, "Cold start").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as quote

# analysis, fusion, galois and constructors are imported by the functions
# that call them, so a command loads only the modules it runs
from . import cyclo, datum as datum_mod, extension
from .cyclo import CycloNum
from .datum import ModularDatum
from .errors import (
    BadLevel,
    DuplicateLabel,
    EvenOrder,
    ModdataError,
    NotAUnit,
    SchemaError,
    TooLarge,
)
from .report import jsonable

ENV_MAX_GROUP_ORDER = "MODDATA_MAX_GROUP_ORDER"
ENV_CONDUCTOR_LIMIT = "MODDATA_CONDUCTOR_LIMIT"
DATUM_SCHEMA = "moddata-datum/1"
_BRACKETS = {list: "[]", tuple: "[]", dict: "{}"}


# -- datum wire format -------------------------------------------------------


def _cyclo_from_node(obj, path: str) -> CycloNum:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object with conductor and coeffs")
    try:
        return cyclo.from_json(obj)
    except TooLarge as exc:
        raise TooLarge(f"{path}: {exc}") from None
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


_PLAIN_COEFFS = frozenset((str, int))


def _node_key(obj):
    """(conductor, tuple of coeffs) of a dict of exactly an int
    "conductor" and a list "coeffs", else None.  The coefficients are
    not looked at here: _read_row decides which hits are repeats."""
    if type(obj) is not dict or len(obj) != 2:
        return None
    m, coeffs = obj.get("conductor"), obj.get("coeffs")
    if type(m) is not int or type(coeffs) is not list:
        return None
    return m, tuple(coeffs)


def _read_row(nodes, read: dict, where: str) -> tuple:
    """The values of a row of scalar nodes, node j at path where[j].

    read maps the _node_key of each node read so far to its value and
    whether its coefficients are all str.  A later node with an equal key
    shares that value if they are, since json.loads makes nothing but a
    str equal to a str, or if its own are all exactly str or int, since
    True == 1 == 1.0.  Any other node, an unhashable one included, is
    read on its own, as if it stood alone."""
    values = []
    for j, x in enumerate(nodes):
        key = _node_key(x)
        try:
            hit = read.get(key)
        except TypeError:  # a list or dict coefficient
            hit = key = None
        if hit and (hit[1] or _PLAIN_COEFFS.issuperset(map(type, key[1]))):
            values.append(hit[0])
            continue
        value = _cyclo_from_node(x, f"{where}[{j}]")
        if key is not None:
            read[key] = value, all(type(c) is str for c in key[1])
        values.append(value)
    return tuple(values)


def datum_from_obj(obj, path: str = "$") -> ModularDatum:
    """The datum of a parsed wire object; SchemaError carries the JSON path
    of the first offending node.

    Each distinct scalar node is read once per call: a repeat of a node
    with the same _node_key shares the value read from its first
    occurrence, which has passed cyclo.from_json, as _read_row says.
    Every other node goes through cyclo.from_json itself."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "datum must be a JSON object")
    for key in ("labels", "unit", "star", "S", "T"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required field")
    labels = obj["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or any(not isinstance(x, str) for x in labels)
    ):
        raise SchemaError(f"{path}.labels", "must be a nonempty list of strings")
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{path}.labels", "labels must be distinct")
    m = len(labels)
    unit = obj["unit"]
    if unit not in labels:
        raise SchemaError(f"{path}.unit", f"unit {unit!r} is not a label")
    star_map = obj["star"]
    if not isinstance(star_map, dict):
        raise SchemaError(f"{path}.star", "must map labels to labels")
    index = {lab: i for i, lab in enumerate(labels)}
    star = []
    for lab in labels:
        target = star_map.get(lab)
        if not isinstance(target, str) or target not in index:
            raise SchemaError(
                f"{path}.star.{lab}", f"maps to unknown label {target!r}"
            )
        star.append(index[target])
    for i in range(m):
        if star[star[i]] != i:
            raise SchemaError(f"{path}.star", "star is not an involution")
    s_rows = obj["S"]
    if not isinstance(s_rows, list) or len(s_rows) != m:
        raise SchemaError(f"{path}.S", f"must be a {m}x{m} matrix")
    read = {}  # _node_key -> (CycloNum, whether its coeffs are all str)
    s_matrix = []
    for i, row in enumerate(s_rows):
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError(f"{path}.S[{i}]", f"must have {m} entries")
        s_matrix.append(_read_row(row, read, f"{path}.S[{i}]"))
    t_row = obj["T"]
    if not isinstance(t_row, list) or len(t_row) != m:
        raise SchemaError(f"{path}.T", f"must have {m} entries")
    t_diag = _read_row(t_row, read, f"{path}.T")
    return ModularDatum(
        labels=tuple(labels),
        unit=unit,
        star=tuple(star),
        s_matrix=tuple(s_matrix),
        t_diag=t_diag,
    )


def parse_datum(text: str) -> ModularDatum:
    """Parse the JSON wire form; SchemaError carries the JSON path of the
    offending node."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None
    return datum_from_obj(obj)


def _datum_tree(d: ModularDatum) -> dict:
    """The wire object of d, its entries left as CycloNum values."""
    star = {lab: d.labels[d.star[i]] for i, lab in enumerate(d.labels)}
    return {"schema": DATUM_SCHEMA, "labels": d.labels, "unit": d.unit,
            "star": star, "S": d.s_matrix, "T": d.t_diag}


def serialize_datum(d: ModularDatum) -> dict:
    return jsonable(_datum_tree(d))


def serialize_datum_text(d: ModularDatum) -> str:
    """json.dumps(serialize_datum(d), indent=2) plus a newline."""
    return write_json(_datum_tree(d)) + "\n"


def write_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, in one pass.  A CycloNum
    is written as its cyclo.to_json form, formatted once per value and
    depth; any other value that is not a plain str, int, bool, None or
    container goes to json.dumps, its newlines padded to its depth, as
    json nests it."""
    parts = []
    _write(obj, "", parts, {})
    return "".join(parts)


def _write(x, pad: str, parts: list, leaves: dict) -> None:
    # a module function, not a closure: a closure that calls itself is a
    # reference cycle, which would keep parts alive until the next collection
    kind = type(x)
    if kind is CycloNum:
        key = (x.conductor, x.den, x.nums, pad)  # leaves maps it to its text
        text = leaves.get(key)
        if text is None:
            text = leaves[key] = write_json(cyclo.to_json(x)).replace("\n", "\n" + pad)
        parts.append(text)
    elif kind is str:
        parts.append(quote(x))
    elif kind is int:
        parts.append(int.__repr__(x))
    elif kind is bool or x is None:
        parts.append("null" if x is None else "true" if x else "false")
    elif kind in _BRACKETS and (kind is not dict or all(type(k) is str for k in x)):
        inner = pad + "  "
        comma = ",\n" + inner
        parts.append(_BRACKETS[kind][0] + "\n" + inner)
        for item in x:
            if kind is dict:
                parts.append(quote(item) + ": ")
                item = x[item]
            _write(item, inner, parts, leaves)
            parts.append(comma)
        parts[-1] = "\n" + pad + _BRACKETS[kind][1] if x else _BRACKETS[kind]
    else:  # indent=2 changes only how a container is written
        text = json.dumps(x, indent=2 if isinstance(x, (dict, list, tuple)) else None)
        parts.append(text.replace("\n", "\n" + pad))


# -- datum references --------------------------------------------------------


# gen: pseudo-path kinds: the name of the constructor, and the name of
# its integer parameter (None when it takes none)
_GENERATORS = {
    "semion": ("semion_datum", None),
    "trivial": ("trivial_datum", None),
    "radford": ("radford_datum", "order"),
    "su2": ("su2_datum", "level"),
}


def load_datum(ref: str) -> ModularDatum:
    """Resolve a file path or a gen: pseudo-path such as gen:semion,
    gen:trivial, gen:radford:5 or gen:su2:3."""
    if ref.startswith("gen:"):
        kind, *params = ref.split(":")[1:]
        if kind not in _GENERATORS:
            raise SchemaError("$", f"unknown generator {kind!r}")
        from . import constructors

        name, param = _GENERATORS[kind]
        make = getattr(constructors, name)
        if param is None:
            if params:
                raise SchemaError(
                    "$", f"gen:{kind} takes no parameter, got {ref!r}"
                )
            return make()
        if not params:
            raise SchemaError(
                "$", f"gen:{kind} needs an integer {param}, e.g. gen:{kind}:5"
            )
        if len(params) > 1:
            raise SchemaError(
                "$", f"gen:{kind} takes one integer {param}, got {ref!r}"
            )
        try:
            value = int(params[0])
        except ValueError:
            raise SchemaError(
                "$", f"gen:{kind} {param} must be an integer, got {params[0]!r}"
            ) from None
        return make(value)
    with open(ref, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8 text: {exc}") from None
    return parse_datum(text)


# -- rendering ---------------------------------------------------------------


def _render_report_text(payload: dict, out) -> None:
    def line(text=""):
        print(text, file=out)

    verdicts = payload.get("verdicts", {})
    report = payload.get("report")
    if report:
        line("derived quantities:")
        for key in ("n", "N", "N_o", "dims", "g", "g_rec", "normalized", "integral"):
            if key in report:
                line(f"  {key} = {_value_text(report[key])}")
    for name, value in payload.items():
        if name in ("verdicts", "report", "datum", "schema", "passed"):
            continue
        line(f"{name} = {_value_text(value)}")
    for name, verdict in verdicts.items():
        if isinstance(verdict, dict) and "checks" in verdict:
            status = "PASS" if verdict.get("passed") else "FAIL"
            line(f"[{status}] {name}")
            for check in verdict["checks"]:
                mark = "ok" if check.get("passed") else "FAIL"
                extra = ""
                if "value" in check:
                    extra = f" = {_value_text(check['value'])}"
                if not check.get("passed") and "witness" in check:
                    extra += f" ; witness: {_value_text(check['witness'])}"
                line(f"    {mark:4} {check['name']}{extra}")
        else:
            line(f"[info] {name}: {_value_text(verdict)}")
    if "passed" in payload:
        line(f"overall: {'PASS' if payload['passed'] else 'FAIL'}")


def _value_text(value) -> str:
    if isinstance(value, dict) and set(value) == {"conductor", "coeffs"}:
        try:
            return str(cyclo.from_json(value))
        except ValueError:
            pass
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, default=cyclo.to_json)
    return str(value)


def _emit(payload: dict, as_json: bool, out) -> None:
    if as_json:
        print(write_json(payload), file=out)
    else:
        _render_report_text(payload, out)


# -- the congruence commands; the others are in moddata.analysis --------------


def _extension_entry(e, idx):
    try:
        charge = extension.additive_charge(e)
    except ModdataError:
        charge = None
    return {
        "index": idx,
        "rank": jsonable(e.rank),
        "charge": jsonable(e.charge),
        "is_rank": e.is_rank,
        "additive_charge_mod_24": charge,
    }


def _level(args, d: ModularDatum) -> int:
    """The --level flag, or the normalized exponent when it is absent.
    The datum's derived quantities are computed either way, so a datum
    they reject fails before any search."""
    n_o = datum_mod.basic_stats(d).N_o
    if args.level is None:
        return n_o
    return _positive("--level", args.level)


def _lift_search(d: ModularDatum, level: int, args) -> dict:
    survivors = extension.lift_search(d, level, args.max_group_order)
    return {
        "surviving": len(survivors),
        "extensions": [_extension_entry(e, i) for i, e in enumerate(survivors)],
    }


def _cmd_congruence(args, out) -> int:
    d = load_datum(args.datum)
    level = _level(args, d)
    projective = extension._projective_check(d, level, args.max_group_order)
    payload = {
        "level": level,
        "projective": {
            "factors": projective.projective_factors,
            "witness": projective.witness.to_json() if projective.witness else None,
        },
        "passed": bool(projective.projective_factors),
    }
    if not args.projective:
        payload["lift_search"] = _lift_search(d, level, args)
    _emit(payload, args.json, out)
    return 0 if payload["passed"] else 1


def _cmd_lift_search(args, out) -> int:
    d = load_datum(args.datum)
    level = _level(args, d)
    payload = {"level": level, **_lift_search(d, level, args), "passed": True}
    _emit(payload, args.json, out)
    return 0


# -- argument parsing ---------------------------------------------------------


def _int_env(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"${name}", f"must be an integer, got {raw!r}") from None
    return _positive(f"${name}", value)


def _add_conductor_limit(parser):
    # unset is None, as for --max-group-order: main reads the environment
    parser.add_argument(
        "--conductor-limit", type=int, help="bound on cyclotomic conductors"
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line and exit 2.  Help is not printed: its
    text is the code of the SystemExit raised, for main to write out."""

    def error(self, message):
        # argparse quotes the values it names, but not unrecognized ones
        self.exit(2, "error: " + message.replace("\n", "\\n") + "\n")

    def print_help(self, file=None):
        raise SystemExit(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moddata",
        description="Exact analysis of modular data over cyclotomic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datum_commands = {}
    for name, text, func in (
        ("validate", "check the five defining axioms", "_cmd_validate"),
        ("analyze", "run the full analysis chain", "_cmd_analyze"),
        ("fusion-table", "emit the fusion coefficients", "_cmd_fusion_table"),
        ("galois-check", "verify the Galois action laws", "_cmd_galois_check"),
        ("symbols", "fusion-symbol table and laws", "_cmd_symbols"),
        ("extensions", "list the twelve extensions", "_cmd_extensions"),
        ("congruence", "projective factoring and lift search at a level",
         _cmd_congruence),
        ("lift-search", "extensions whose representation factors at a level",
         _cmd_lift_search),
    ):
        datum_commands[name] = p = sub.add_parser(name, help=text)
        p.add_argument(
            "datum",
            help="datum JSON file or gen: pseudo-path "
            "(gen:semion, gen:trivial, gen:radford:N, gen:su2:K)",
        )
        p.add_argument("--json", action="store_true", help="machine output")
        _add_conductor_limit(p)
        p.set_defaults(func=func)
    for name in ("analyze", "congruence", "lift-search"):  # the searches
        datum_commands[name].add_argument(
            "--max-group-order",
            type=int,
            help="bound on the reduced modular group order",
        )
    datum_commands["analyze"].add_argument(
        "--extensions",
        action="store_true",
        help="include the extension and congruence suite",
    )
    for name in ("congruence", "lift-search"):
        datum_commands[name].add_argument("--level", type=int, default=None)
    datum_commands["congruence"].add_argument(
        "--projective",
        action="store_true",
        help="only the projective check on the raw matrices",
    )

    p = sub.add_parser("gen", help="emit a built-in datum as JSON")
    p.set_defaults(func="_cmd_gen")
    kinds = p.add_subparsers(dest="kind", required=True)
    gen = {}
    for kind in ("semion", "trivial", "radford", "product"):
        gen[kind] = p = kinds.add_parser(kind)
        p.add_argument("--out", default=None, help="output file")
        _add_conductor_limit(p)
    radford = gen["radford"]
    radford.add_argument("--n", type=int, required=True, help="cyclic order")
    radford.add_argument("--zeta", type=int, default=1, help="root exponent")
    gen["product"].add_argument("factors", nargs=2, metavar="datum")

    p = sub.add_parser("gauss-sum", help="classical quadratic Gauss sum laws")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--json", action="store_true")
    _add_conductor_limit(p)
    p.set_defaults(func="_cmd_gauss_sum")

    p = sub.add_parser("cocycle", help="cyclic-group 3-cocycle table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zeta", type=int, default=1)
    p.add_argument("--check", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_conductor_limit(p)
    p.set_defaults(func="_cmd_cocycle")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import; it keeps no call state
    return build_parser()


def _positive(name: str, value: int) -> int:
    if value < 1:
        raise SchemaError(name, f"must be positive, got {value}")
    return value


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):  # the help text
            out.write(exc.code)
            return 0
        return int(exc.code or 0)
    token = None
    try:
        if not getattr(args, "extensions", True) and (args.max_group_order or 0) > 0:
            raise SchemaError("--max-group-order", "is read only with --extensions")
        # read on every call, so a changed environment takes effect
        max_group_order = _int_env(
            ENV_MAX_GROUP_ORDER, extension.DEFAULT_MAX_GROUP_ORDER
        )
        conductor_limit = _int_env(
            ENV_CONDUCTOR_LIMIT, cyclo.get_conductor_limit()
        )
        if getattr(args, "max_group_order", None) is None:
            args.max_group_order = max_group_order
        if args.conductor_limit is None:
            args.conductor_limit = conductor_limit
        _positive("--max-group-order", args.max_group_order)
        token = cyclo.set_conductor_limit(
            _positive("--conductor-limit", args.conductor_limit)
        )
        func = args.func
        if isinstance(func, str):  # a handler of moddata.analysis, by name
            from . import analysis

            func = getattr(analysis, func)
        return func(args, out)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, OSError, BadLevel, DuplicateLabel, EvenOrder, NotAUnit) as exc:
        # bad input: a malformed file or flag, an order, level or exponent
        # that no construction accepts, or a product whose labels collide
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModdataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if token is not None:
            # the limit is a context variable: this thread's only
            cyclo.reset_conductor_limit(token)


if __name__ == "__main__":
    sys.exit(main())
