"""Offline references for the serve workload's correctness check.

Run as ``python expected.py STORE`` with the package on ``PYTHONPATH`` and
one ``experiment seed`` pair per line on stdin.  Prints one JSON object
mapping ``"experiment/seed"`` to

* ``body``: the sha256 of ``execute(RunRequest(experiment, quick=True,
  seed=seed, cache="auto", cache_dir=STORE)).artifact.to_json() + "\\n"``,
  the warm-read form every served body must equal byte for byte.  A key
  the store lacks is computed, stored, and read back, so it too yields
  the warm-read form;
* ``fresh``: the same key computed again with ``cache="off"``, as the
  dict of ``artifact.without_timing().to_json()``.  It never reads the
  store, so it checks what the daemon computed and stored there.
"""

from __future__ import annotations

import hashlib
import json
import sys


def main(argv: list[str]) -> int:
    from repro.runtime import RunRequest
    from repro.runtime.runner import execute

    store = argv[1]
    expected = {}
    for line in sys.stdin:
        if not line.strip():
            continue
        experiment, seed = line.split()
        request = RunRequest(experiment, quick=True, seed=int(seed), cache="auto", cache_dir=store)
        response = execute(request)
        if response.served_from != "store":
            response = execute(request)
        body = (response.artifact.to_json() + "\n").encode("utf-8")
        fresh = execute(request.with_cache("off")).artifact
        expected[f"{experiment}/{seed}"] = {
            "body": hashlib.sha256(body).hexdigest(),
            "fresh": json.loads(fresh.without_timing().to_json()),
        }
    json.dump(expected, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
