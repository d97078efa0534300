"""The whole-text CSV route, kept to cross-check `DiscreteDataset.from_csv`.

The library tokenises each distinct line once and gathers every row's codes
by its line id. This reads a text the way the library did before: one
`csv.reader` pass over the whole text, one list per record, and each cell
encoded on its own in Python. It raises the library's errors with the
library's messages, checking in the library's order (tokenising, header,
widths, then values column by column), so on every text the two routes must
give an equal dataset or the same error.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Optional, Sequence

import numpy as np

from causalkit import DiscreteDataset, SchemaMismatch

MISSING_CELLS = ("", "NA")


def from_csv(
    text: str, states: Optional[Mapping[str, Sequence[str]]] = None
) -> DiscreteDataset:
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise SchemaMismatch(f"unreadable CSV: {exc}") from None
    if not records or not records[0]:
        raise SchemaMismatch("empty CSV: no header row")
    header = records[0]
    rows = [r for r in records[1:] if r]
    if len(set(header)) != len(header):
        raise SchemaMismatch("duplicate column names")
    for r in rows:
        if len(r) != len(header):
            raise SchemaMismatch(
                f"row of width {len(r)} under a {len(header)}-column header"
            )
    if states is None:
        states = {
            c: sorted({r[j] for r in rows if r[j] not in MISSING_CELLS})
            for j, c in enumerate(header)
        }
    codes = {}
    for j, c in enumerate(header):
        if c not in states:
            continue  # DiscreteDataset._set reports it
        labels = list(states[c])
        col = []
        for r in rows:
            if r[j] in MISSING_CELLS:
                col.append(-1)
            elif r[j] in labels:
                col.append(labels.index(r[j]))
            else:
                raise SchemaMismatch(
                    f"value {r[j]!r} outside declared states of column {c!r}"
                )
        codes[c] = np.array(col, dtype=np.min_scalar_type(-len(labels) - 1))
    return DiscreteDataset._from_codes(header, codes, states, len(rows))
