"""Table IX: storage requirements of ACCORD.

Pure accounting: PWS and SWS are stateless; GWS needs the RIT and RLT
(64 entries x 20 bits each = 320 bytes total). Cross-checked against
the live policy objects' ``storage_bits``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.storage import storage_table
from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign, make_design
from repro.experiments.common import Settings, parse_args
from repro.utils.tables import format_table

PAPER_CAPACITY = 4 * 1024 * 1024 * 1024


def run(settings: Optional[Settings] = None) -> str:
    geometry = CacheGeometry(PAPER_CAPACITY, 2)
    rows = [[name, f"{nbytes} Bytes"] for name, nbytes in storage_table(geometry)]

    # Cross-check against a live ACCORD instance. Its tag store is
    # never touched, so it is never built: the counted bits live in
    # the steering and predictor tables alone.
    cache = make_design(AccordDesign(kind="accord", ways=2), geometry)
    live_bytes = (cache.storage_overhead_bits() + 7) // 8
    rows.append(["(live ACCORD cache object)", f"{live_bytes} Bytes"])
    return format_table(
        ["ACCORD component", "storage"],
        rows,
        title="Table IX: storage requirements of ACCORD (4GB cache)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
