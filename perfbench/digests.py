#!/usr/bin/env python3
"""Print the expected report digests of every fixed rung, as JSON.

    python3 perfbench/digests.py > perfbench/expected_digests.json

Run it from the repository root, on a commit whose reports are trusted, and
only when a change is meant to alter a report.  A digest covers a report's
`result` and `verdict`, not its `engine_version`.
"""

import json
import sys

import run


def main():
    sys.path.insert(0, run.SRC)
    argvs = {run.digest_key(run.SETUP_COMMAND): run.SETUP_COMMAND}
    for size in ("full", "tiny"):
        for workload in run.WORKLOADS:
            for op in run.build_ladder(workload, 0, size, {}):
                if op.key:
                    argvs[op.key] = op.argv
    execute = run.Children()
    digests = {}
    for key, argv in sorted(argvs.items()):
        _code, out, _seconds, _cpu = execute(list(argv), run.OP_TIMEOUT)
        digests[key] = run.report_digest(json.loads(out))
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
