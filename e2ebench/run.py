"""The repository benchmark: ``python3 e2ebench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Workloads (see ``README.md`` for why each exists):

* ``runall`` — cold, then warm, ``repro run all --jobs 1`` (``runall_workload``);
* ``serve`` — ``repro serve`` filled, then read under an open-loop load
  (``serve_workload``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Both print a human table first and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that cannot measure (no package
sources, a daemon that never starts, a wrapper that never fires) exits
non-zero without that line.
"""

from __future__ import annotations

import argparse
import sys

import runall_workload
import serve_workload
from harness import BenchError, Report, install_exit_handlers, require_program
from layers import PER_LAYER, PER_LAYER_NAMES

#: The end-to-end metrics of the result line, on every workload.  The
#: table also prints ``warm_tail_ms``, the read tail, which is left out
#: of the result line: its run-to-run spread on a shared 2-core host is
#: wider than any bound a regression check could use.
END_TO_END = ("cold_s", "warm_p50_ms", "peak_rss_mb", "setup_s")

WORKLOADS = {"runall": runall_workload, "serve": serve_workload}

#: Seconds a run may take before it stops its children and fails.
RUN_BUDGET_S = 175


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of the repro package")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the steady phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    install_exit_handlers(RUN_BUDGET_S)
    try:
        require_program()
        report = Report(args.workload, trace=bool(args.trace))
        workload = WORKLOADS[args.workload]
        if not args.trace:
            workload.run_untraced(args.seed, args.seconds, report)
            report.emit(END_TO_END)
        else:
            values = workload.run_traced(args.seed, args.seconds, report)
            for metric in PER_LAYER:
                value = values.get(metric.name, 0.0)
                report.add(metric.name, value, metric.unit, 1, f"moves {metric.moves}")
            report.emit(PER_LAYER_NAMES)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
