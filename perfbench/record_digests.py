"""Rewrite perfbench/digests.json from the current program's output.

    python3 perfbench/record_digests.py

Records the sha256 of the stdout of every op in one pass of each workload
at the default seed.  A run that meets one of these ops again counts a
different stdout as a failed op, which holds later versions of the program
to byte-identical CLI output.  Rerun only when the output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402
from perfbench.checks import CHECKS, digest  # noqa: E402
from perfbench.gen import WORKLOADS, op_list  # noqa: E402
from perfbench.measure import run_op  # noqa: E402


def main() -> int:
    os.environ.pop("QWEBS_WORKERS", None)
    cli = run._load_program()
    caches = list(run.module_caches().values())
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for argv in op_list(workload, run.DEFAULT_SEED):
            _, _, rc, text, error = run_op(cli.main, argv, caches)
            if rc != 0 or CHECKS[workload](text):
                print(f"not recording a failing op: {argv} {error}", file=sys.stderr)
                return 1
            out[workload][" ".join(argv)] = digest(text)
    path = os.path.join(run.ROOT, "perfbench", "digests.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, out.values()))} digests to {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
