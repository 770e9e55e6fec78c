"""Record the reference digests that ``run.py`` checks outputs against.

Run from the root of a source checkout, at a commit whose outputs are
trusted:

    python3 bench/record.py

It runs every op of ``divisor_ladder`` and ``library_session`` once and
writes ``bench/reference.json``.  ``verify_sweep`` needs no digests: its ops
must exit 0 and print only PASS lines.  Re-record only when an output is
meant to change, and say why in the change that does it.
"""

import json
import os
import random
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    os.environ.pop(run.ENV_TRUNCATE, None)
    pkg = run.import_package()
    digests = {}
    for name in ("divisor_ladder", "library_session"):
        # The checks read the digests recorded so far, so only the
        # independent references can fail here.
        units = workloads.build(name, pkg, random.Random(0), run.OUT, digests)
        for unit in units:
            ctx = {}
            for op in unit:
                result = op.call(ctx)
                digests[op.key] = workloads.digest(workloads.digest_text(op.kind, result))
                error = op.check(result)
                if error:
                    sys.stderr.write("error: %s\n" % error)
                    return 1
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"digests": dict(sorted(digests.items()))}, handle, indent=1)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(digests), workloads.REFERENCE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
