"""The package's earlier CSV writer, cell by cell, as an oracle.

It formats every float cell with %.17g and every other cell with str, one
line at a time.  cli._csv now yields the header and then one chunk per
block of rows, each filling one row template over the block's cells;
its chunks, joined, must give the same text.
"""

from pathlib import Path
from typing import Sequence


def write_csv(path: Path, columns: dict[str, Sequence]) -> None:
    cells = []
    for values in columns.values():
        values = values.tolist() if hasattr(values, "tolist") else list(values)
        float_column = bool(values) and isinstance(values[0], float)
        cells.append(map("%.17g".__mod__ if float_column else str, values))
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")
