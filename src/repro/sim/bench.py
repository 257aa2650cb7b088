"""The shared design sets that tests and the benchmark run.

:data:`BENCH_DESIGNS` is deliberately heterogeneous: every design kind,
so every specialized code path (static candidates, way-predicted
lookup, the CA fallback loop) is exercised by the engine equivalence
tests, the batching tests and ``perfbench/``. :func:`sweep_designs` is
its homogeneous counterpart: one design family across a parameter
grid, the case the batch planner fuses into a single multi-config pass.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.accord import AccordDesign

#: The 16 design variants: every kind at its canonical associativity,
#: plus the 4-way ACCORD and 4-hash SWS configurations the paper
#: evaluates. Shared with the fast-path equivalence tests so
#: "benchmarked" and "proven bit-identical" stay the same set.
BENCH_DESIGNS: Tuple[AccordDesign, ...] = (
    AccordDesign(kind="direct", ways=1),
    AccordDesign(kind="parallel", ways=2),
    AccordDesign(kind="serial", ways=2),
    AccordDesign(kind="unbiased", ways=2),
    AccordDesign(kind="pws", ways=2),
    AccordDesign(kind="gws", ways=2),
    AccordDesign(kind="accord", ways=2),
    AccordDesign(kind="accord", ways=4),
    AccordDesign(kind="sws", ways=8, hashes=2),
    AccordDesign(kind="sws", ways=8, hashes=4),
    AccordDesign(kind="dueling", ways=2),
    AccordDesign(kind="mru", ways=2),
    AccordDesign(kind="partial_tag", ways=2),
    AccordDesign(kind="perfect", ways=2),
    AccordDesign(kind="ideal", ways=2),
    AccordDesign(kind="ca", ways=1),
)

#: Grid points of :func:`sweep_designs`.
SWEEP_CONFIGS = 16


def sweep_designs() -> Tuple[AccordDesign, ...]:
    """A 16-point PIP grid over 2-way PWS, from 0.2 to 0.95.

    All grid points share one fused-kernel signature, so the batched
    path evaluates the whole matrix in a single multi-config pass.
    Labels (``pws-pip0.2`` ...) are part of the contract: benchmark
    references key sweep results by display name.
    """
    designs = []
    for i in range(SWEEP_CONFIGS):
        pip = round(0.2 + 0.75 * i / (SWEEP_CONFIGS - 1), 6)
        designs.append(
            AccordDesign(
                kind="pws", ways=2, pip=pip, label=f"pws-pip{pip:g}"
            )
        )
    return tuple(designs)
