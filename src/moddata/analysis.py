"""The analysis half of the command-line front end.

``build_analysis`` runs the full analysis chain on a datum and bundles
its verdicts, and the handlers here implement every command but
``congruence`` and ``lift-search``.  ``moddata.cli`` keeps the parser,
``main``, the datum wire format and the two congruence handlers, and
imports this module when one of these commands runs, so a cold
congruence request never compiles it.
"""

from __future__ import annotations

from fractions import Fraction

# the cli helpers and the traced layers are looked up on their modules at
# each call, so a wrapper installed on those modules sees these calls
from . import axioms, cli, cyclo, datum as datum_mod, extension
from .datum import ModularDatum
from .errors import ModdataError, NotIntegral
from .report import CheckReport, Frozen, Record, jsonable

BUNDLE_SCHEMA = "moddata-bundle/1"


# -- analysis bundle ---------------------------------------------------------


class AnalysisBundle(Record):
    """Datum, derived report, and one verdict per library operation."""

    __match_args__ = ("datum", "report", "verdicts")

    def __init__(self, datum: ModularDatum, report, verdicts: dict | None = None):
        self.datum = datum
        self.report = report
        self.verdicts = {} if verdicts is None else verdicts

    @property
    def passed(self) -> bool:
        for verdict in self.verdicts.values():
            if isinstance(verdict, CheckReport) and not verdict.passed:
                return False
            if isinstance(verdict, dict) and verdict.get("passed") is False:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "schema": BUNDLE_SCHEMA,
            "datum": cli.serialize_datum(self.datum),
            "report": jsonable(self.report),
            "verdicts": {k: jsonable(v) for k, v in self.verdicts.items()},
            "passed": self.passed,
        }


def build_analysis(
    d: ModularDatum,
    *,
    extensions: bool = False,
    max_group_order: int = extension.DEFAULT_MAX_GROUP_ORDER,
) -> AnalysisBundle:
    """The full analysis chain: axioms, derived report, structural and
    power identities, fusion-ring laws, Galois laws, fusion symbols, the
    odd-exponent sign theorems and divisibility; with extensions=True
    also the extension family, charge powers and the congruence suite."""
    from . import fusion, galois

    bundle = AnalysisBundle(datum=d, report=None)
    verdicts = bundle.verdicts
    verdicts["axioms"] = rep = axioms.validate_axioms(d)
    if not rep.passed:
        return bundle
    bundle.report = axioms.derive_report(d)
    verdicts["structural-identities"] = axioms.verify_structural_identities(d)
    verdicts["power-identities"] = axioms.power_identity_check(d)

    table = fusion.fusion_coefficients(d)
    verdicts["fusion-table"] = table.verify_invariants()
    verdicts["fusion-homomorphisms"] = fusion.verify_ring_homomorphisms(d, table)
    verdicts["idempotent-laws"] = fusion.verify_idempotent_laws(d, table)

    galois_projective = False
    try:
        verdicts["galois-action-laws"] = galois.verify_action_laws(d)
        galois_ok, witness = galois.is_galois_datum(d)
        gal_rep = CheckReport("galois-datum")
        gal_rep.add("twist-condition", galois_ok, witness)
        verdicts["galois-datum"] = gal_rep
        verdicts["fusion-symbol-analysis"] = galois.fusion_symbol_analysis(d)
        index_rep = CheckReport("verlinde-field-index")
        index_rep.add(
            "index-computed", True, value=galois.verlinde_field_index(d)
        )
        verdicts["verlinde-field-index"] = index_rep
        stats = datum_mod.basic_stats(d)
        if stats.N % 2 == 1:
            verdicts["odd-exponent-sign"] = galois.odd_sign_analysis(d)

        projective_verdict = None
        if extensions:
            projective_verdict = extension._projective_check(
                d, stats.N_o, max_group_order
            ).projective_factors
            galois_projective = bool(projective_verdict) and galois_ok
        verdicts["divisibility"] = galois.arithmetic_divisibility_checks(
            d, galois_projective_congruence=galois_projective
        )

        if extensions:
            verdicts["extension-family"] = extension_family_check(d)
            family = extension.extension_family(d)
            charge_rep = CheckReport("central-charge-powers")
            fourth = stats.g ** 4 == stats.t_o ** 8 * stats.g_rec ** 4
            squared = stats.g ** 2 == stats.t_o ** 4 * stats.g_rec ** 2
            ell24 = all(e.charge ** 24 == 1 for e in family)
            if galois_projective:
                charge_rep.add("charge-24th-power", ell24)
                charge_rep.add("gauss-fourth-power-relation", fourth)
            else:
                charge_rep.add("charge-24th-power-observed", True, value=ell24)
                charge_rep.add(
                    "gauss-fourth-power-observed", True, value=fourth
                )
            charge_rep.add(
                "gauss-squared-power-observed", True, value=squared
            )
            verdicts["central-charge-powers"] = charge_rep
            charges = {}
            for idx, e in enumerate(family):
                try:
                    charges[str(idx)] = extension.additive_charge(e)
                except ModdataError:
                    charges[str(idx)] = None
            congruence_rep = CheckReport("congruence")
            congruence_rep.add(
                "projective-at-normalized-exponent",
                bool(projective_verdict),
            )
            survivors = extension.lift_search(d, stats.N_o, max_group_order)
            congruence_rep.add(
                "lift-search-at-normalized-exponent",
                True,
                value={
                    "level": stats.N_o,
                    "surviving": len(survivors),
                    "additive_charges": charges,
                },
            )
            verdicts["congruence"] = congruence_rep
    except NotIntegral as exc:
        skip = CheckReport("galois-suite")
        skip.add("skipped-not-integral", True, value=str(exc))
        verdicts["galois-suite"] = skip
    return bundle


def extension_family_check(d: ModularDatum) -> CheckReport:
    """Any two extensions differ by a twelfth root of unity twisting the
    charge and its cube dividing the rank, and every twelfth root of
    unity maps an extension to another extension.

    Decided on exponents.  With r the first member's rank, each distinct
    rank is matched by value against i^k r once, and each charge, a root
    of unity, is read as the fraction e with charge = exp(2 pi i e).
    Then ell / ell_0 is a twelfth root of unity zeta_12^t iff
    t = 12 (e - e_0) is an integer, and i^k r zeta^3 = r iff k + t = 0
    mod 4; the twist by zeta_12^k of the first member is (i^-k r,
    e_0 + k / 12).  A rank matching no i^k r, or a charge that is not a
    root of unity, fails its member."""
    rep = CheckReport("extension-family")
    family = extension._family_choices(d)
    rep.add("family-size-twelve", len(family) == 12, value=len(family))
    r = family[0][0]
    i_r = cyclo.root_of_unity(4, 1) * r
    powers = (r, i_r, -r, -i_r)  # i^k r
    quarters = {}  # each distinct rank -> its k, or None

    def quarter(rank):
        key = (rank.conductor, rank.den, rank.nums)
        if key not in quarters:
            quarters[key] = next((k for k, x in enumerate(powers) if rank == x), None)
        return quarters[key]

    def exponent(charge):
        hit = cyclo.root_of_unity_exponent(charge)
        return None if hit is None else Fraction(hit[1], hit[0])

    members = [(quarter(rank), exponent(charge)) for rank, charge, _ in family]
    e_0 = members[0][1]

    def related(k, e):
        if k is None or e is None or e_0 is None:
            return False
        t = 12 * (e - e_0)
        return t.denominator == 1 and (k + t.numerator) % 4 == 0

    w = next((idx for idx, (k, e) in enumerate(members) if not related(k, e)), None)
    rep.add("related-by-twelfth-roots", w is None, w)
    found = {(k, e) for k, e in members if k is not None and e is not None}
    w = next((k for k in range(12)
              if e_0 is None or ((-k) % 4, (e_0 + Fraction(k, 12)) % 1) not in found),
             None)
    rep.add("closed-under-twisting", w is None, w)
    return rep


class CongruenceClassification(Frozen):
    __match_args__ = ("modulus", "projective", "congruence", "minimal_level")

    def __init__(self, modulus: int, projective: bool, congruence: bool,
                 minimal_level: int | None):
        self.__dict__.update(modulus=modulus, projective=projective,
                             congruence=congruence,
                             minimal_level=minimal_level)


def congruence_classify(
    e: extension.ExtendedDatum,
    max_group_order: int = extension.DEFAULT_MAX_GROUP_ORDER,
) -> CongruenceClassification:
    """Projective factoring of the raw matrices at the normalized exponent
    N_o, and linear factoring of the homogeneous ones at every level,
    decided by one search at L0 = ord T' (see moddata.extension): the
    representation is congruence at N_o when L0 divides N_o and it
    factors at L0, and its minimal level is L0 when it factors there."""
    stats = datum_mod.basic_stats(e.datum)
    projective = extension._projective_check(
        e.datum, stats.N_o, max_group_order
    ).projective_factors
    level, linear = extension._linear_at_dehn_order(e, max_group_order)
    return CongruenceClassification(
        modulus=stats.N_o,
        projective=bool(projective),
        congruence=linear and stats.N_o % level == 0,
        minimal_level=level if linear else None,
    )


# -- subcommand implementations ----------------------------------------------


def _cmd_validate(args, out) -> int:
    d = cli.load_datum(args.datum)
    rep = axioms.validate_axioms(d)
    payload = {"verdicts": {"axioms": jsonable(rep)}, "passed": rep.passed}
    cli._emit(payload, args.json, out)
    return 0 if rep.passed else 1


def _cmd_analyze(args, out) -> int:
    d = cli.load_datum(args.datum)
    bundle = build_analysis(
        d,
        extensions=args.extensions,
        max_group_order=args.max_group_order,
    )
    payload = bundle.to_json()
    cli._emit(payload, args.json, out)
    return 0 if bundle.passed else 1


def _cmd_fusion_table(args, out) -> int:
    from . import fusion

    d = cli.load_datum(args.datum)
    table = fusion.fusion_coefficients(d)
    payload = {
        "labels": list(d.labels),
        "coefficients": [
            [list(row) for row in plane] for plane in table.coeffs
        ],
        "violations": jsonable(list(table.violations)),
        "passed": not table.violations,
    }
    if args.json:
        cli._emit(payload, True, out)
    else:
        labels = d.labels
        width = max(2, max(len(x) for x in labels) + 1)
        for i, lab_i in enumerate(labels):
            print(f"N[{lab_i}, -, -]:", file=out)
            header = " " * width + "".join(f"{lab:>{width}}" for lab in labels)
            print(header, file=out)
            for j, lab_j in enumerate(labels):
                row = "".join(
                    f"{table.coeff(i, j, k):>{width}}" for k in range(d.size)
                )
                print(f"{lab_j:>{width}}" + row, file=out)
            print(file=out)
    return 0 if not table.violations else 1


def _cmd_galois_check(args, out) -> int:
    from . import galois

    d = cli.load_datum(args.datum)
    laws = galois.verify_action_laws(d)
    galois_ok, witness = galois.is_galois_datum(d)
    gal_rep = CheckReport("galois-datum")
    gal_rep.add("twist-condition", galois_ok, witness)
    perms = {
        str(q): list(galois.index_action(d, q).perm)
        for q in galois.units_mod(datum_mod.basic_stats(d).N_o)
    }
    payload = {
        "verdicts": {
            "galois-action-laws": jsonable(laws),
            "galois-datum": jsonable(gal_rep),
        },
        "permutations": perms,
        "field_index": galois.verlinde_field_index(d),
        "passed": laws.passed and galois_ok,
    }
    cli._emit(payload, args.json, out)
    return 0 if payload["passed"] else 1


def _cmd_symbols(args, out) -> int:
    from . import galois

    d = cli.load_datum(args.datum)
    table = galois.fusion_symbol_table(d)
    analysis = galois.fusion_symbol_analysis(d)
    payload = {
        "modulus": table.modulus,
        "symbols": {
            str(q): jsonable(v) for q, v in sorted(table.values.items())
        },
        "verdicts": {"fusion-symbol-analysis": jsonable(analysis)},
        "passed": analysis.passed,
    }
    cli._emit(payload, args.json, out)
    return 0 if analysis.passed else 1


def _cmd_extensions(args, out) -> int:
    d = cli.load_datum(args.datum)
    family = extension.extension_family(d)
    check = extension_family_check(d)
    payload = {
        "extensions": [cli._extension_entry(e, i) for i, e in enumerate(family)],
        "verdicts": {"extension-family": jsonable(check)},
        "passed": check.passed,
    }
    cli._emit(payload, args.json, out)
    return 0 if check.passed else 1


def _cmd_gen(args, out) -> int:
    if args.kind == "radford":
        from . import constructors

        d = constructors.radford_datum(args.n, args.zeta)
    elif args.kind == "product":
        d = datum_mod.kronecker_product(*map(cli.load_datum, args.factors))
    else:
        d = cli.load_datum(f"gen:{args.kind}")
    text = cli.serialize_datum_text(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return 0


def _cmd_gauss_sum(args, out) -> int:
    from . import constructors

    cli._positive("--n", args.n)
    g = constructors.classical_gauss_sum(args.n)
    rep = constructors.verify_gauss_lemma(args.n)
    payload = {
        "n": args.n,
        "sum": jsonable(g),
        "square": jsonable(g * g),
        "verdicts": {"gauss-sum-laws": jsonable(rep)},
        "passed": rep.passed,
    }
    if args.q is not None:
        twisted = constructors.classical_gauss_sum(args.n, args.q)
        payload["q"] = args.q
        payload["twisted_sum"] = jsonable(twisted)
        if args.n % 2 == 1:
            jac = cyclo.jacobi_symbol(args.q, args.n)
            agrees = twisted == g * jac
            payload["jacobi_symbol"] = jac
            payload["twist_matches_jacobi"] = agrees
            payload["passed"] = payload["passed"] and agrees
    cli._emit(payload, args.json, out)
    return 0 if payload["passed"] else 1


def _cmd_cocycle(args, out) -> int:
    from . import constructors

    cli._positive("--n", args.n)
    c = constructors.cocycle_omega(args.n, args.zeta)
    if args.check:  # refused, if at all, before the table is printed
        ok, witness = constructors.verify_3cocycle(c)
    payload = {
        "n": args.n,
        "zeta_exponent": args.zeta,
        "table": c.table,
    }
    if args.check:
        payload["cocycle_identity"] = ok
        payload["witness"] = jsonable(witness)
        payload["passed"] = ok
    cli._emit(payload, args.json, out)
    return 0 if payload.get("passed", True) else 1
