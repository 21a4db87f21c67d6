"""Per-layer tracing of moddata from outside the package.

The tracer wraps every public function of the moddata modules by
rebinding each module attribute that holds it, because the modules bind
one another's functions with ``from .datum import basic_stats`` and
similar imports.  ``CycloNum.__mul__``, ``CycloNum.inverse`` and
``FusionTable.verify_invariants`` are patched on their classes.

The cyclotomic and matrix layers (``cyclo``, ``linalg``) are called
millions of times, so they keep only aggregate counters and self time.
The layers above them (``datum`` through ``cli``) also record one span
per call, with the id of the span that caused it.  Self time of a call
is its duration minus the time spent in wrapped callees.

Nothing here runs on import: ``Tracer.install`` patches and
``Tracer.uninstall`` restores.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import time

COUNTER_MODULES = ("cyclo", "linalg")
SPAN_MODULES = ("datum", "fusion", "galois", "extension", "constructors", "cli")
# Every module of the package, searched for attributes to rebind.
ALL_MODULES = (
    "moddata",
    "moddata.cyclo",
    "moddata.linalg",
    "moddata.report",
    "moddata.datum",
    "moddata.fusion",
    "moddata.galois",
    "moddata.extension",
    "moddata.constructors",
    "moddata.cli",
)


class Tracer:
    """Counters, self time and spans of one traced process."""

    def __init__(self):
        self.calls = {}  # "module.function" -> [calls, self seconds]
        self.counts = {
            "mul_max_conductor": 0,
            "mat_mul_entry_products": 0,
            "group_elements_checked": 0,
            "factor_check_witnesses": 0,
        }
        # (span id, parent id, request id, name, start, end); perf_counter
        # is system-wide monotonic, so child-process spans share its clock.
        self.spans = []
        self._inner = [0.0]  # time in wrapped callees, per open call
        self._open = [0]  # ids of the open spans; 0 is the root
        self._ids = itertools.count(1)
        self._request = 0
        self._patches = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, span, observe=None):
        stat = self.calls.setdefault(name, [0, 0.0])
        inner = self._inner
        opened = self._open
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if span:
                span_id = next(ids)
                parent = opened[-1]
                opened.append(span_id)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - inner.pop()
                inner[-1] += elapsed
                if span:
                    opened.pop()
                    spans.append(
                        (span_id, parent, self._request, name, start, end)
                    )
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self, extension_mod):
        counts = self.counts
        sl2_order = extension_mod.sl2_order

        def mul(args, result):
            conductor = getattr(result, "conductor", 0)
            if conductor > counts["mul_max_conductor"]:
                counts["mul_max_conductor"] = conductor

        def mat_mul(args, result):
            a, b = args[0], args[1]
            counts["mat_mul_entry_products"] += len(a) * len(b) * len(b[0])

        def factor_check(args, result):
            counts["group_elements_checked"] += sl2_order(args[2])
            if result.witness is not None:
                counts["factor_check_witnesses"] += 1

        return {
            "cyclo.mul": mul,
            "linalg.mat_mul": mat_mul,
            "extension.factor_check": factor_check,
        }

    def install(self) -> None:
        """Wrap the public functions of every layer (imports moddata)."""
        modules = {name: importlib.import_module(name) for name in ALL_MODULES}
        observers = self._observers(modules["moddata.extension"])
        wrappers = {}  # id(original) -> wrapper
        for short in COUNTER_MODULES + SPAN_MODULES:
            module = modules[f"moddata.{short}"]
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(value)] = self._wrap(
                    name, value, short in SPAN_MODULES, observers.get(name)
                )
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        cyclo_num = modules["moddata.cyclo"].CycloNum
        fusion_table = modules["moddata.fusion"].FusionTable
        for owner, attr, name, span in (
            (cyclo_num, "__mul__", "cyclo.mul", False),
            (cyclo_num, "inverse", "cyclo.inverse", False),
            (fusion_table, "verify_invariants", "fusion.verify_invariants", True),
        ):
            original = vars(owner)[attr]
            self._patch(
                owner, attr, self._wrap(name, original, span, observers.get(name))
            )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- requests, children and output -------------------------------------

    @contextlib.contextmanager
    def request(self, key: str):
        """Open the root span of one request; its id tags every span
        recorded until it closes."""
        self._request = span_id = next(self._ids)
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self._open.pop()
            self.spans.append(
                (span_id, 0, span_id, f"request {key}", start, time.perf_counter())
            )
            self._request = 0

    def export(self) -> dict:
        return {"calls": self.calls, "counts": self.counts, "spans": self.spans}

    def merge(self, child: dict, request_id: int) -> None:
        """Add a child process's export; its root spans become children
        of the given request span."""
        for name, (calls, self_s) in child["calls"].items():
            stat = self.calls.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += self_s
        for name, value in child["counts"].items():
            if name == "mul_max_conductor":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        ids = {0: request_id}
        for span_id, parent, _, name, start, end in child["spans"]:
            ids[span_id] = next(self._ids)
        for span_id, parent, _, name, start, end in child["spans"]:
            self.spans.append(
                (ids[span_id], ids[parent], request_id, name, start, end)
            )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

    def layer_metrics(
        self, passes: int, requests: int, stdout_bytes: int, overhead: float
    ) -> dict:
        """The per-layer metrics.  Counts and self times are per pass over
        the catalogue; ``*_per_op`` ratios are per request."""

        def calls(*names):
            return sum(self.calls.get(n, (0, 0.0))[0] for n in names)

        def self_s(*names):
            return sum(self.calls.get(n, (0, 0.0))[1] for n in names) / passes

        def per_pass(value):
            return value / passes

        checks = calls("extension.factor_check")
        values = {
            "cyclo.mul_calls": per_pass(calls("cyclo.mul")),
            "cyclo.mul_self_s": self_s("cyclo.mul"),
            "cyclo.mul_max_conductor": self.counts["mul_max_conductor"],
            "cyclo.inverse_calls": per_pass(calls("cyclo.inverse")),
            "cyclo.inverse_self_s": self_s("cyclo.inverse"),
            "cyclo.lift_calls": per_pass(calls("cyclo.lift_conductor")),
            "cyclo.galois_apply_calls": per_pass(calls("cyclo.galois_apply")),
            "cyclo.root_of_unity_order_calls": per_pass(
                calls("cyclo.root_of_unity_order")
            ),
            "cyclo.root_of_unity_order_self_s": self_s("cyclo.root_of_unity_order"),
            "cyclo.from_json_calls": per_pass(calls("cyclo.from_json")),
            "cyclo.from_json_self_s": self_s("cyclo.from_json"),
            "cyclo.to_json_self_s": self_s("cyclo.to_json"),
            "linalg.mat_mul_calls": per_pass(calls("linalg.mat_mul")),
            "linalg.mat_mul_self_s": self_s("linalg.mat_mul"),
            "linalg.mat_mul_entry_products": per_pass(
                self.counts["mat_mul_entry_products"]
            ),
            "linalg.mat_mul_diag_calls": per_pass(calls("linalg.mat_mul_diag")),
            "linalg.mat_inverse_calls": per_pass(calls("linalg.mat_inverse")),
            "linalg.mat_inverse_self_s": self_s("linalg.mat_inverse"),
            "datum.validate_axioms_calls": per_pass(calls("datum.validate_axioms")),
            "datum.validate_axioms_self_s": self_s("datum.validate_axioms"),
            "datum.basic_stats_calls": per_pass(calls("datum.basic_stats")),
            "datum.basic_stats_self_s": self_s("datum.basic_stats"),
            "datum.kronecker_product_self_s": self_s("datum.kronecker_product"),
            "datum.basic_stats_per_op": calls("datum.basic_stats") / requests,
            "datum.validate_axioms_per_op": calls("datum.validate_axioms") / requests,
            "fusion.fusion_coefficients_calls": per_pass(
                calls("fusion.fusion_coefficients")
            ),
            "fusion.fusion_coefficients_self_s": self_s("fusion.fusion_coefficients"),
            "fusion.fusion_coefficients_per_op": calls("fusion.fusion_coefficients")
            / requests,
            "fusion.verify_self_s": self_s(
                "fusion.verify_ring_homomorphisms",
                "fusion.verify_idempotent_laws",
                "fusion.verify_invariants",
            ),
            "galois.index_action_calls": per_pass(calls("galois.index_action")),
            "galois.index_action_self_s": self_s("galois.index_action"),
            "galois.verify_action_laws_self_s": self_s("galois.verify_action_laws"),
            "galois.fusion_symbol_analysis_self_s": self_s(
                "galois.fusion_symbol_analysis"
            ),
            "extension.factor_check_calls": per_pass(checks),
            "extension.factor_check_self_s": self_s("extension.factor_check"),
            "extension.group_elements_checked": per_pass(
                self.counts["group_elements_checked"]
            ),
            "extension.factor_check_witness_ratio": (
                self.counts["factor_check_witnesses"] / checks if checks else 0.0
            ),
            "extension.sl2_enumerate_self_s": self_s("extension.sl2_enumerate"),
            "extension.extension_family_calls": per_pass(
                calls("extension.extension_family")
            ),
            "extension.extension_family_self_s": self_s("extension.extension_family"),
            "constructors.radford_datum_self_s": self_s("constructors.radford_datum"),
            "cli.main_self_s": self_s("cli.main"),
            "cli.load_datum_self_s": self_s("cli.load_datum"),
            "cli.serialize_self_s": self_s(
                "cli.serialize_datum", "cli.serialize_datum_text"
            ),
            "cli.build_analysis_self_s": self_s("cli.build_analysis"),
            "cli.stdout_bytes": per_pass(stdout_bytes),
            "trace.overhead_ratio": overhead,
        }
        return values
