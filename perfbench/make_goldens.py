"""Pin the golden outcome of every catalogue request and every input.

    python3 perfbench/make_goldens.py

Runs each variant of each entry once, the way the benchmark runs it, and
writes ``goldens.json``: for every request its exit code, the sha256 of
its standard output and the sha256 of any file it writes; for every
input file its sha256.  Rerun only when the program's output is meant
to change.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads


def collect() -> dict:
    workloads.import_moddata()
    goldens = {"inputs": {}, "requests": {}}
    for workload in workloads.WORKLOADS.values():
        out_dir = os.path.join(workloads.ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        work = tempfile.mkdtemp(prefix="goldens-", dir=out_dir)
        try:
            texts = workloads.write_inputs(workload, work)
            for name, data in texts.items():
                goldens["inputs"][name] = workloads.sha256(data)
            for request in workload.requests():
                if workload.cold:
                    code, stdout = workloads.run_cold(request, work)
                else:
                    code, stdout = workloads.run_warm(request, work)
                written = workloads.take_output(request, work)
                goldens["requests"][request.key] = workloads.outcome(code, stdout, written)
        finally:
            shutil.rmtree(work)
    return goldens


def main() -> int:
    goldens = collect()
    with open(workloads.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(goldens['requests'])} requests, {len(goldens['inputs'])} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
