"""CSV export of experiment rows.

Every harness function returns rows as a list of flat dicts; this
helper persists them as the committed ``results/*.csv`` artifacts.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.errors import ConfigError


def rows_to_csv(rows, path):
    """Write dict rows to ``path`` as CSV (keys of the first row = header)."""
    if not rows:
        raise ConfigError("rows must be non-empty")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path

