"""The value types are plain classes that behave as the dataclasses they
replaced.  Each is compared with a dataclasses.make_dataclass twin that
has the old fields, flags and defaults, on values from built_in_data():
repr, equality, hashing, refusal of assignment, construction and
jsonable."""

import dataclasses
from dataclasses import field

import pytest

from oracles import built_in_data

from moddata import linalg
from moddata.analysis import (
    AnalysisBundle,
    CongruenceClassification,
    build_analysis,
    congruence_classify,
)
from moddata.axioms import (
    DatumReport,
    derive_report,
    validate_axioms,
    verify_structural_identities,
)
from moddata.constructors import CocycleFn, cocycle_omega
from moddata.datum import DatumStats, ModularDatum, basic_stats
from moddata.extension import (
    CongruenceReport,
    ExtendedDatum,
    RankOption,
    SL2Mod,
    Witness,
    enumerate_ranks,
    extension_family,
    factor_check,
    sl2_enumerate,
)
from moddata.fusion import FusionElement, FusionTable, basis_element, fusion_coefficients
from moddata.galois import (
    FusionSymbolTable,
    GaloisPermutation,
    fusion_symbol_table,
    index_action,
)
from moddata.report import Check, CheckReport, jsonable

_DATA = dict(built_in_data())
SEMION, RADFORD3 = _DATA["semion"], _DATA["radford3^1"]


def _terms(table):
    object.__setattr__(table, "terms", tuple(tuple(
        tuple((k, n) for k, n in enumerate(row) if n) for row in plane
    ) for plane in table.coeffs))


def _elementwise_eq(self, other):
    if not isinstance(other, type(self)):
        return NotImplemented
    return len(self.coeffs) == len(other.coeffs) and all(
        a == b for a, b in zip(self.coeffs, other.coeffs)
    )


# the methods the old classes defined that the dataclass decorator then
# took as given: FusionTable filled terms after __init__, and FusionElement
# compared its coefficients itself
OLD_METHODS = {
    FusionTable: {"__post_init__": _terms},
    FusionElement: {"__eq__": _elementwise_eq},
}

# (class, frozen, the old fields: a name, or (name, type, field(...)))
OLD = [
    (Check, False, ["name", "passed", ("witness", object, field(default=None)),
                    ("value", object, field(default=None))]),
    (CheckReport, False, ["title", ("checks", list, field(default_factory=list))]),
    (ModularDatum, True, [
        "labels", "unit", "star", "s_matrix", "t_diag",
        ("_memo", dict, field(default_factory=dict, init=False, repr=False,
                              compare=False)),
    ]),
    (DatumStats, True, ["n", "n_int", "dims", "dims_int", "N", "N_o", "g",
                        "g_rec", "t_o", "n_o", "normalized", "integral"]),
    (DatumReport, True, ["n", "N", "N_o", "dims", "g", "g_rec", "normalized",
                         "integral"]),
    (ExtendedDatum, True, ["datum", "rank", "charge", "is_rank"]),
    (RankOption, True, ["value", "is_rank"]),
    (SL2Mod, True, ["modulus", "elements"]),
    (Witness, True, ["element", "word", "assigned", "computed"]),
    (CongruenceReport, True, ["modulus", "linear_factors", "projective_factors",
                              ("witness", object, field(default=None))]),
    (CongruenceClassification, True, ["modulus", "projective", "congruence",
                                      "minimal_level"]),
    (AnalysisBundle, False, ["datum", "report",
                             ("verdicts", dict, field(default_factory=dict))]),
    (CocycleFn, True, ["n", "table"]),
    (FusionTable, True, ["size", "coeffs", ("violations", tuple, field(default=())),
                         ("terms", tuple, field(init=False, repr=False,
                                                compare=False))]),
    (FusionElement, True, ["coeffs"]),
    (GaloisPermutation, True, ["q", "perm"]),
    (FusionSymbolTable, True, ["modulus", "values"]),
]


def _failing(level, mode):
    return factor_check(
        SEMION.s_matrix, linalg.diag_matrix(SEMION.t_diag), level, mode
    )


def _samples(cls):
    """Two unequal values of the type, built by the library."""
    make = {
        Check: lambda: validate_axioms(SEMION).checks[:2],
        CheckReport: lambda: [validate_axioms(SEMION),
                              verify_structural_identities(SEMION)],
        ModularDatum: lambda: [SEMION, RADFORD3],
        DatumStats: lambda: [basic_stats(SEMION), basic_stats(RADFORD3)],
        DatumReport: lambda: [derive_report(SEMION), derive_report(RADFORD3)],
        ExtendedDatum: lambda: extension_family(SEMION)[:2],
        RankOption: lambda: enumerate_ranks(SEMION)[:2],
        SL2Mod: lambda: [sl2_enumerate(2), sl2_enumerate(3)],
        Witness: lambda: [_failing(2, "linear").witness,
                          _failing(2, "projective").witness],
        CongruenceReport: lambda: [_failing(4, "projective"), _failing(2, "linear")],
        CongruenceClassification: lambda: [
            congruence_classify(extension_family(SEMION)[0]),
            congruence_classify(extension_family(RADFORD3)[0]),
        ],
        AnalysisBundle: lambda: [build_analysis(SEMION),
                                 build_analysis(_DATA["trivial"])],
        CocycleFn: lambda: [cocycle_omega(2), cocycle_omega(3)],
        FusionTable: lambda: [fusion_coefficients(SEMION),
                              fusion_coefficients(RADFORD3)],
        FusionElement: lambda: [basis_element(2, 0), basis_element(2, 1)],
        GaloisPermutation: lambda: [index_action(RADFORD3, 1),
                                    index_action(RADFORD3, 2)],
        FusionSymbolTable: lambda: [fusion_symbol_table(SEMION),
                                    fusion_symbol_table(RADFORD3)],
    }[cls]
    return make()


def _twin(cls, frozen, fields):
    spec = [(f, object) if isinstance(f, str) else f for f in fields]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=frozen, namespace=OLD_METHODS.get(cls)
    )


def _init_names(twin):
    return [f.name for f in dataclasses.fields(twin) if f.init]


def _values(obj, names):
    return [getattr(obj, n) for n in names]


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the two sides must fail alike
        return type(exc).__name__, str(exc)


def _old_jsonable(plain, twin):
    """jsonable as the dataclass had it: to_json for a check or a report,
    else the twin's fields, in order."""
    if isinstance(plain, (Check, CheckReport)):
        return plain.to_json()
    return jsonable({f.name: getattr(twin, f.name) for f in dataclasses.fields(twin)})


CASES = [pytest.param(*case, id=case[0].__name__) for case in OLD]


def test_every_value_type_is_covered_and_none_is_a_dataclass():
    assert len(OLD) == 17
    assert not any(dataclasses.is_dataclass(cls) for cls, _, _ in OLD)


@pytest.mark.parametrize("cls,frozen,fields", CASES)
def test_repr_equality_and_hash_match_the_dataclass(cls, frozen, fields):
    twin = _twin(cls, frozen, fields)
    names = _init_names(twin)
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    a, b = _samples(cls)
    va, vb = _values(a, names), _values(b, names)
    ta, tb = twin(*va), twin(*vb)
    assert repr(a) == repr(ta)
    assert repr(b) == repr(tb)
    same = cls(*va)
    assert (a == same, a != same) == (ta == twin(*va), ta != twin(*va)) == (True, False)
    assert (a == b, a != b) == (ta == tb, ta != tb) == (False, True)
    # the plain value and its twin are foreign to each other
    for foreign_a, foreign_t in ((ta, a), (tuple(va), tuple(va)), (None, None)):
        assert (a == foreign_a) is (ta == foreign_t) is False
        assert (a != foreign_a) is (ta != foreign_t) is True
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(ta))
    if frozen and _outcome(lambda: hash(a))[0] == "ok":
        assert hash(a) == hash(same)


@pytest.mark.parametrize("cls,frozen,fields", CASES)
def test_assignment_is_refused_exactly_when_the_dataclass_refused_it(
    cls, frozen, fields
):
    twin = _twin(cls, frozen, fields)
    names = _init_names(twin)
    values = _values(_samples(cls)[0], names)
    plain, old = cls(*values), twin(*values)
    for name in (names[0], "unrelated"):
        got = _outcome(lambda: setattr(plain, name, None))
        want = _outcome(lambda: setattr(old, name, None))
        assert got[1] == want[1]
        assert (got[0] == "ok") is (want[0] == "ok") is (not frozen)
        got = _outcome(lambda: delattr(plain, name))
        want = _outcome(lambda: delattr(old, name))
        assert got[1] == want[1]
        assert (got[0] == "ok") is (want[0] == "ok") is (not frozen)
    if frozen:
        assert _values(plain, names) == values


@pytest.mark.parametrize("cls,frozen,fields", CASES)
def test_construction_matches_the_dataclass(cls, frozen, fields):
    twin = _twin(cls, frozen, fields)
    names = _init_names(twin)
    values = _values(_samples(cls)[0], names)
    by_keyword = dict(zip(names, values))
    assert repr(cls(*values)) == repr(cls(**by_keyword)) == repr(twin(**by_keyword))
    assert cls(*values) == cls(**by_keyword)
    required = [
        f.name for f in dataclasses.fields(twin)
        if f.init and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    short = values[: len(required)]
    x, y, old = cls(*short), cls(*short), twin(*short)
    assert repr(x) == repr(old)
    for name in names[len(required):]:
        assert getattr(x, name) == getattr(old, name)
        if isinstance(getattr(old, name), (list, dict)):
            assert getattr(x, name) is not getattr(y, name)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**by_keyword, unrelated=None)


@pytest.mark.parametrize("cls,frozen,fields", CASES)
def test_jsonable_lists_the_dataclass_fields_in_order(cls, frozen, fields):
    twin = _twin(cls, frozen, fields)
    names = _init_names(twin)
    values = _values(_samples(cls)[0], names)
    plain = cls(*values)
    got = jsonable(plain)
    assert got == _old_jsonable(plain, twin(*values))
    if cls not in (Check, CheckReport):
        assert list(got) == [f.name for f in dataclasses.fields(twin)]


def test_caches_stay_out_of_equality_repr_and_hash():
    fresh = ModularDatum(*_values(SEMION, ModularDatum.__match_args__))
    basic_stats(SEMION)
    assert SEMION._memo and not fresh._memo
    assert SEMION == fresh and repr(SEMION) == repr(fresh)
    table = fusion_coefficients(RADFORD3)
    again = FusionTable(table.size, table.coeffs, table.violations)
    assert again.terms == table.terms and again == table
    assert "terms" not in repr(table)
    assert hash(again) == hash(table)


def test_modular_datum_still_validates():
    with pytest.raises(ValueError, match="nonempty"):
        ModularDatum((), "1", (), (), ())
    with pytest.raises(ValueError, match="unit 'x' not among labels"):
        ModularDatum(("1",), "x", (0,), ((1,),), (1,))
