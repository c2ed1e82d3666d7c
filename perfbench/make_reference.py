"""Regenerate ``reference.json``: the digest of every request's output.

    python3 perfbench/make_reference.py

Run it from the repository root, at a commit whose outputs are trusted.
Each workload's family is issued once, in canonical order, and the
canonical digest of each output is stored under the request's id.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads
from run import HERE, start_worker


def main() -> int:
    root = os.getcwd()
    table = {}
    os.makedirs(os.path.join(root, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_tmp"))
    try:
        for workload in workloads.FAMILIES:
            family = workloads.family(workload)
            result = start_worker(root, {
                "workload": workload, "requests": family,
                "reissue": [False] * len(family), "trace": False,
                "labels": workloads.labels(family), "scratch": scratch})
            digests = {}
            for index, _, _, digest, _ in result["records"]:
                if digest.startswith("error"):
                    print(f"{family[index]}: {digest}", file=sys.stderr)
                    return 1
                digests[workloads.request_id(family[index])] = digest
            table[workload] = digests
            print(f"{workload}: {len(digests)} requests", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
