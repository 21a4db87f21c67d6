"""The benchmark's workloads: their inputs, catalogues and requests.

A workload is a catalogue of entries.  Each entry lists the variants of
one request, which differ only in the zeta exponents of the radford data
they use (Galois-conjugate inputs of equal size); the seed picks one
variant per entry and the order of the entries in every pass.  Every
variant has a golden in ``goldens.json``, so any seed can be verified.

``cli-mix`` and ``wire`` run in-process against warm caches;
``congruence`` starts a fresh interpreter for every request.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")
COLD = os.path.join(HERE, "cold.py")
OUT_FILE = "out.json"
# A cold request takes at most about 1.5 s; one that takes this long hangs.
COLD_TIMEOUT_S = 60


def import_moddata():
    """Import moddata from the checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import moddata

    if os.path.dirname(os.path.dirname(os.path.abspath(moddata.__file__))) != SRC:
        raise ImportError(f"moddata was imported from {moddata.__file__}, not from {SRC}")
    return moddata


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Request:
    """One request.  ``key`` names its golden.  In ``argv`` an item
    ``@name`` is the path of input ``name``, ``@out`` the path of the
    output file; ``("read", "@name")`` is a wire round trip."""

    key: str
    argv: tuple

    @property
    def inputs(self):
        return [a[1:] for a in self.argv if a.startswith("@") and a != "@out"]

    @property
    def writes(self) -> bool:
        return "@out" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool
    entries: tuple  # each a tuple of Request variants

    def requests(self):
        return [r for variants in self.entries for r in variants]

    def inputs(self):
        return sorted({name for r in self.requests() for name in r.inputs})

    def make_pass(self, rng):
        """One pass over the catalogue: a variant of every entry, shuffled."""
        chosen = [rng.choice(variants) for variants in self.entries]
        rng.shuffle(chosen)
        return chosen


def radford(n: int):
    return tuple(f"radford{n}-z{z}" for z in range(1, n) if gcd(z, n) == 1)


def _product(a, b):
    return tuple(f"{x}-x-{y}" for x, y in itertools.product(a, b))


CLI_COMMANDS = (
    "validate",
    "analyze",
    "fusion-table",
    "galois-check",
    "symbols",
    "extensions",
)
CLI_DATA = (
    ("trivial",),
    ("semion",),
    radford(3),
    radford(5),
    ("semion-x-semion",),
    _product(radford(3), ("semion",)),
)

CLI_MIX = Workload(
    "cli-mix",
    cold=False,
    entries=tuple(
        tuple(
            Request(f"cli-mix {command} {name}", (command, f"@{name}", "--json"))
            for name in data
        )
        for command in CLI_COMMANDS
        for data in CLI_DATA
    ),
)

# (command, data, level); every level divides 24 N_o, every request stays
# at or under about 1.5 s, and group orders run from 1 to 9216.  Semion
# congruence at 2 and 6 exits 1: the projective check fails there, which
# is a verdict, not an error.  The list is short so that a run covers
# every case several times.
CONGRUENCE_CASES = (
    ("congruence", ("trivial",), 1),
    ("congruence", ("trivial",), 4),
    ("lift-search", ("trivial",), 2),
    ("congruence", ("trivial",), 8),
    ("congruence", ("trivial",), 12),
    ("congruence", ("trivial",), 24),
    ("congruence", ("semion",), 2),
    ("lift-search", ("semion",), 4),
    ("congruence", ("semion",), 6),
    ("lift-search", ("semion",), 8),
    ("congruence", radford(3), 1),
    ("congruence", radford(3), 3),
    ("lift-search", radford(3), 4),
    ("congruence", ("semion-x-semion",), 2),
    ("lift-search", ("semion-x-semion",), 3),
)

CONGRUENCE = Workload(
    "congruence",
    cold=True,
    entries=tuple(
        tuple(
            Request(
                f"congruence {command} {name} {level}",
                (command, f"@{name}", "--level", str(level), "--json"),
            )
            for name in data
        )
        for command, data, level in CONGRUENCE_CASES
    ),
)


def _read(n):
    return tuple(Request(f"wire read {name}", ("read", f"@{name}")) for name in radford(n))


def _gen(n):
    return tuple(
        Request(
            f"wire gen {name}",
            ("gen", "radford", "--n", str(n), "--zeta", name.rsplit("z", 1)[1],
             "--out", "@out"),
        )
        for name in radford(n)
    )


def _gen_product(a, b):
    return tuple(
        Request(f"wire product {x} {y}", ("gen", "product", f"@{x}", f"@{y}", "--out", "@out"))
        for x, y in itertools.product(a, b)
    )


WIRE = Workload(
    "wire",
    cold=False,
    entries=(
        # Reads are listed twice so conversion, not arithmetic, leads.
        _read(15), _read(15), _read(21), _read(21), _read(25), _read(25),
        _gen(5), _gen(7), _gen(9), _gen(11), _gen(13), _gen(15),
        _gen_product(("semion",), ("semion",)),
        _gen_product(radford(3), ("semion",)),
        # radford 5 x radford 7 would spend half of every pass multiplying.
        _gen_product(radford(3), radford(5)),
    ),
)

WORKLOADS = {w.name: w for w in (CLI_MIX, CONGRUENCE, WIRE)}


# -- inputs -------------------------------------------------------------------


def build_input(name: str) -> str:
    """JSON text of a named datum: trivial, semion, radford<n>-z<z>, or a
    Kronecker product of such names joined by -x-."""
    from moddata import cli, constructors, datum

    def build(part):
        if part == "trivial":
            return constructors.trivial_datum()
        if part == "semion":
            return constructors.semion_datum()
        n, z = part[len("radford"):].split("-z")
        return constructors.radford_datum(int(n), int(z))

    parts = name.split("-x-")
    d = build(parts[0])
    for part in parts[1:]:
        d = datum.kronecker_product(d, build(part))
    return cli.serialize_datum_text(d)


def write_inputs(workload: Workload, work: str) -> dict:
    """Write every input of the workload into ``work``; returns their
    bytes by name."""
    texts = {}
    for name in workload.inputs():
        data = build_input(name).encode("utf-8")
        with open(os.path.join(work, name + ".json"), "wb") as handle:
            handle.write(data)
        texts[name] = data
    return texts


# -- requests -----------------------------------------------------------------


def resolve(argv, work: str):
    out = []
    for a in argv:
        if a == "@out":
            out.append(os.path.join(work, OUT_FILE))
        elif a.startswith("@"):
            out.append(os.path.join(work, a[1:] + ".json"))
        else:
            out.append(a)
    return out


def run_warm(request: Request, work: str):
    """Run one request in-process; returns (exit code, stdout bytes)."""
    from moddata import cli

    argv = resolve(request.argv, work)
    if argv[0] == "read":
        text = cli.serialize_datum_text(cli.load_datum(argv[1]))
        return 0, text.encode("utf-8")
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue().encode("utf-8")


def run_cold(request: Request, work: str, trace_file=None):
    """Run one request in a fresh interpreter; returns (exit code,
    stdout bytes).  Raises subprocess.TimeoutExpired on a hang."""
    cmd = [sys.executable, COLD]
    if trace_file is not None:
        cmd += ["--trace", trace_file]
    proc = subprocess.run(
        cmd + resolve(request.argv, work),
        cwd=work,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=COLD_TIMEOUT_S,
    )
    if proc.stderr:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    return proc.returncode, proc.stdout


def take_output(request: Request, work: str):
    """The file the request wrote, removed so the next one starts clean."""
    if not request.writes:
        return None
    path = os.path.join(work, OUT_FILE)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return b""
    os.remove(path)
    return data


def outcome(code: int, stdout: bytes, written) -> dict:
    return {
        "exit": code,
        "stdout": sha256(stdout),
        "file": None if written is None else sha256(written),
    }
