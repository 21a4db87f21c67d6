"""One cold request: a fresh interpreter runs moddata's CLI once, as a
user of the ``moddata`` command would.

    python3 perfbench/cold.py [--trace FILE] ARG...

With ``--trace`` the tracer is installed first and its counters and
spans are written to FILE as JSON when the command ends.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main(argv) -> int:
    if argv[:1] != ["--trace"]:
        from moddata.cli import main as cli_main

        return cli_main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from moddata import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.uninstall()
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
