#!/usr/bin/env python3
"""End-to-end on *real* matrix multiplies: traces, machines, smoothing.

This example leaves the symbolic model entirely: it runs genuine
instrumented matrix multiplications (MM-SCAN and MM-INPLACE computing real
products), replays their block traces on the square-profile machine under
(a) the adversarial profile and (b) its shuffled version, and reports the
realized I/O behaviour — the paper's theory, visible on an actual
computation.  It also shows the classic DAM law (I/Os ~ N^1.5 / sqrt(M))
for calibration.

Run:  python examples/smoothed_matrix_multiply.py
"""

import numpy as np

from repro.algorithms import mm_inplace, mm_scan
from repro.algorithms.mm import mm_scan_trace_adversary
from repro.machine import run_trace_on_boxes, simulate_dam
from repro.profiles import cycled, shuffle
from repro.util.rng import as_generator
from repro.util.tables import format_table


def main() -> None:
    gen = as_generator(0)
    dim = 32
    a = gen.standard_normal((dim, dim))
    b = gen.standard_normal((dim, dim))

    print(f"multiplying two {dim}x{dim} matrices with instrumented kernels...")
    scan_run = mm_scan(a, b, base_n=2)
    inplace_run = mm_inplace(a, b, base_n=2)
    assert np.allclose(scan_run.product, a @ b)
    assert np.allclose(inplace_run.product, a @ b)
    print(f"  MM-SCAN    trace: {scan_run.trace}")
    print(f"  MM-INPLACE trace: {inplace_run.trace}")

    # --- DAM calibration: I/Os vs cache size ------------------------------
    rows = []
    for m in (32, 64, 128, 256, 512):
        io_scan = simulate_dam(scan_run.trace, m, policy="lru").io_count
        io_inplace = simulate_dam(inplace_run.trace, m, policy="lru").io_count
        rows.append((m, io_scan, io_inplace))
    print("\nDAM baseline (fixed cache, LRU): I/Os shrink ~ 1/sqrt(M)")
    print(format_table(["cache (blocks)", "MM-SCAN I/Os", "MM-INPLACE I/Os"], rows))

    # --- adversarial vs shuffled boxes on the real traces ------------------
    # The adversary is *matched to the real trace's geometry*: boxes sized
    # to the concrete working sets of the execution's leaves and scans —
    # the literal Section-3 construction.
    adversary = mm_scan_trace_adversary(dim, base_n=2)
    shuffled = shuffle(adversary, rng=1)

    rows = []
    for label, trace in (("MM-SCAN", scan_run.trace), ("MM-INPLACE", inplace_run.trace)):
        work = trace.distinct_blocks()
        for pname, profile in (("adversarial", adversary), ("shuffled", shuffled)):
            rec = run_trace_on_boxes(trace, cycled(profile))
            # potential spent per unit of work: the smaller, the better the
            # boxes were used
            potential = float(
                (np.minimum(rec.box_sizes, work).astype(float) ** 1.5).sum()
            )
            rows.append(
                (
                    label,
                    pname,
                    rec.boxes_used,
                    round(potential / work**1.5, 3),
                    rec.completed,
                )
            )
    print("\nreal traces against the trace-matched adversary vs its shuffle")
    print(
        format_table(
            ["kernel", "box order", "boxes used", "potential / work^1.5", "done"],
            rows,
        )
    )
    print(
        "\nThe scan kernel burns far more potential under the adversarial "
        "ordering than under the shuffled one; the in-place kernel barely "
        "notices — exactly the separation the theory predicts."
    )


if __name__ == "__main__":
    main()
