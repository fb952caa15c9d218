"""What a process that builds no confidence interval imports.

``scipy.stats`` takes about a second to import.  A warm ``run all``
and a daemon boot build no interval, so importing the registry, the
daemon and the CLI must not load it; ``MCEstimate.ci_halfwidth``
imports it on first use.  Nor do they time a benchmark: ``repro.bench``
is imported only by ``repro bench``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_registry_daemon_and_cli_do_not_import_scipy_stats():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import sys\n"
        "import repro.experiments.registry, repro.serve.app, repro.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        "assert 'repro.bench' not in sys.modules, 'repro.bench imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr

