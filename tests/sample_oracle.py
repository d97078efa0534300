"""Slow reference route for the CPT sampler, kept to cross-check it.

This is the per-row loop the library ran before each table was laid out as
one array: it walks every row of the CPT in sorted label order, builds an
n-length mask over every parent column for it, and calls `rng.choice` once
for each row that some record matches. A row whose parent states the data
does not declare matches no record. The library instead lays each CPT out
once through `scm.layout`, for a model's nodes and for masking's indicators
alike, and its `draw_codes` makes one `rng.random(n)` per node, hands the
uniforms to the records in the order these `choice` calls read them, and
inverts each record's CDF row, so the two must return the same codes and
leave the generator in the same state. Both return codes in the node's
dataset code type. `tests/test_scm.py` compares them on drawn tables and
`tests/test_missing.py` on drawn masks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from causalkit import Cpt


def draw_codes(
    cpt: Cpt,
    parent_codes: Sequence[np.ndarray],
    parent_states: Sequence[Sequence[str]],
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """State codes of cpt's node drawn for n records, given the records'
    parent state codes: one `rng.choice` per row present."""
    out = np.zeros(n, dtype=np.min_scalar_type(-len(cpt.states) - 1))
    for combo in sorted(cpt.rows):
        mask = np.ones(n, dtype=bool)
        for arr, states, val in zip(parent_codes, parent_states, combo):
            # -2 matches no code: the data has no records in that state
            mask &= arr == (states.index(val) if val in states else -2)
        count = int(mask.sum())
        if count:
            out[mask] = rng.choice(len(cpt.states), size=count, p=cpt.rows[combo])
    return out
