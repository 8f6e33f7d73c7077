"""The package's earlier CSV writer, cell by cell, as an oracle.

It formats every float cell with %.17g and every other cell with str, one
line at a time.  cli._csv now fills one row template over all the cells
at once; its text, written to a file, must give the same bytes.
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
