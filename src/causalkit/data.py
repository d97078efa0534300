"""Categorical datasets and discrete probability tables.

A dataset is stored by column, as one small-int numpy array of state codes
per column: a code indexes the column's state tuple, and -1 marks a missing
cell. Every count is taken on those codes by `DiscreteDataset.counts`. The
label view, in which a cell is its string state label and a missing cell is
None (MISSING), is built on first use. CSV files carry a header row, and
empty or "NA" cells read back as missing. Column state spaces are either
declared explicitly (e.g. by the sampler, so states unseen in a finite
sample stay known) or inferred as the sorted distinct observed labels.

A CSV text is read by distinct lines: `csv.reader` runs once per distinct
line, the few distinct records are checked and encoded, and each column's
codes are gathered from theirs by every row's line id. A text holding a
quote or a carriage return, where a record may span lines, is read with
`csv.reader` over the whole text instead, one id per record, and then
encoded and gathered the same way.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptySelection, SchemaMismatch

MISSING = None

Row = tuple[Optional[str], ...]


def _code_dtype(labels: Sequence[str]) -> np.dtype:
    """The smallest signed integer type holding -1 .. len(labels) - 1."""
    return np.min_scalar_type(-len(labels) - 1)


def _by_column(rows: list, width: int) -> list[list]:
    # itemgetter per column: zip(*rows) allocates an iterator per row, and
    # the garbage collector's passes over those cost more than the parse
    return [list(map(itemgetter(j), rows)) for j in range(width)]


def _tokenise(text: str) -> tuple[list, list[list], np.ndarray]:
    """(header, records, ids) of a CSV text: the header row's cells, the
    distinct non-blank body records in order of first occurrence, and each
    body row's index into `records`. Outside quotes "\r\n" ends a line as
    "\n" does. A quote or a lone carriage return can make a record span
    lines, so a text holding one is read whole, one entry per record."""
    # the one-character test first: a search for "\r\n" takes 2 ms on the
    # 1.3 MB covid text, a search for "\r" 0.02 ms
    lf = text.replace("\r\n", "\n") if "\r" in text and '"' not in text else text
    if '"' in lf or "\r" in lf:
        header, *records = csv.reader(io.StringIO(text))
        records = list(filter(None, records))
        return header, records, np.arange(len(records))
    header, *lines = lf.split("\n")
    lines = list(filter(None, lines))
    index = {line: i for i, line in enumerate(dict.fromkeys(lines))}
    ids = np.fromiter(map(index.__getitem__, lines), np.intp, len(lines))
    return next(csv.reader([header])), list(csv.reader(index)), ids


def _encode(columns, cells, states, missing) -> tuple[dict, Mapping]:
    """(codes, states) of per-column label cells; states are inferred when
    None, and a label in `missing` is coded -1."""
    if states is None:
        states = {
            c: sorted(set(col).difference(missing)) for c, col in zip(columns, cells)
        }
    codes = {}
    for c, col in zip(columns, cells):
        if c not in states:
            continue  # DiscreteDataset._set reports it
        labels = states[c]
        index = {s: i for i, s in enumerate(labels)} | dict.fromkeys(missing, -1)
        try:
            codes[c] = np.fromiter(map(index.__getitem__, col), _code_dtype(labels))
        except KeyError as exc:
            raise SchemaMismatch(
                f"value {exc.args[0]!r} outside declared states of column {c!r}"
            ) from None
    return codes, states


class DiscreteDataset:
    """A fixed-schema table of categorical records, stored by column.

    columns: ordered column names.
    states: per-column tuple of admissible state labels.
    codes: per-column array of state codes, each the index of the cell's
        label in the column's states, or -1 for a missing cell. Datasets
        derived from one another share these arrays; nothing writes to them.
    rows: the records as label tuples aligned with `columns`, None meaning
        missing; built from the codes on first use.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Row],
        states: Mapping[str, Sequence[str]] | None = None,
    ):
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(columns):
                raise SchemaMismatch(
                    f"row of width {len(r)} in a {len(columns)}-column dataset"
                )
        cells = _by_column(rows, len(columns))
        self._set(columns, *_encode(columns, cells, states, (MISSING,)), len(rows))

    def _set(self, columns, codes, states, n: int) -> None:
        """Check the schema, then hold n records of the given code columns."""
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise SchemaMismatch("duplicate column names")
        missing_cols = set(self.columns) - set(states)
        if missing_cols:
            raise SchemaMismatch(
                f"no state list for columns: {sorted(missing_cols)}"
            )
        self.states: dict[str, tuple[str, ...]] = {
            c: tuple(states[c]) for c in self.columns
        }
        for c, labels in self.states.items():
            if len(set(labels)) != len(labels):
                raise SchemaMismatch(f"duplicate states {labels} in column {c!r}")
        self.codes = {
            c: np.asarray(codes[c], dtype=_code_dtype(self.states[c]))
            for c in self.columns
        }
        self._n = n
        self._rows: list[Row] | None = None

    @classmethod
    def _from_codes(cls, columns, codes, states, n: int) -> "DiscreteDataset":
        """A dataset over n records of code arrays that index `states`, -1
        for missing; the codes are taken unchecked."""
        ds = cls.__new__(cls)
        ds._set(columns, codes, states, n)
        return ds

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDataset):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.states == other.states
            and self.rows == other.rows
        )

    def _label_rows(self, names: Sequence[str], missing=MISSING) -> list[tuple]:
        """Label tuples over `names`, `missing` in the missing cells."""
        cols = []
        for n in names:
            lookup = np.array(self.column_states(n) + (missing,), dtype=object)
            cols.append(lookup[self._column(n)].tolist())
        return list(zip(*cols)) if names else [()] * self._n

    @property
    def rows(self) -> list[Row]:
        if self._rows is None:
            self._rows = self._label_rows(self.columns)
        return self._rows

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SchemaMismatch(f"no column named {name!r}") from None

    def column_states(self, name: str) -> tuple[str, ...]:
        return self.states[self.columns[self.column_index(name)]]

    def _column(self, name: str) -> np.ndarray:
        return self.codes[self.columns[self.column_index(name)]]

    def _complete(self, names: Sequence[str]) -> np.ndarray:
        """Mask of the rows observed in every named column."""
        keep = np.ones(self._n, dtype=bool)
        for name in names:
            keep &= self._column(name) >= 0
        return keep

    def project(self, names: Sequence[str]) -> list[Row]:
        """Rows restricted to `names`, dropping rows missing any of those
        cells."""
        return list(compress(self._label_rows(names), self._complete(names).tolist()))

    def counts(
        self, names: Sequence[str], where: Mapping[str, str] | None = None
    ) -> Counter:
        """Complete-case joint counts over the named columns, keyed by label
        tuple; unobserved combinations are absent. `where` maps columns to
        states and keeps only the rows holding them; a state outside its
        column's states matches no row.

        The kept rows are counted on their codes: one bincount over the
        raveled codes while the joint state space is no larger than the row
        count, else a count of the distinct code rows, so no table larger
        than the data is allocated. The observed cells,
        a table of at most that many rows, are then projected to labels.
        """
        keep = self._complete(names)
        for name, state in (where or {}).items():
            labels = self.column_states(name)
            # -2 matches no code, so an undeclared state selects no row
            keep &= self._column(name) == (
                labels.index(state) if state in labels else -2
            )
        cols = [self._column(n)[keep] for n in names]
        shape = [len(self.column_states(n)) for n in names]
        space = math.prod(shape)
        if names and space <= self._n:
            flat = np.bincount(np.ravel_multi_index(cols, shape), minlength=space)
            seen = np.flatnonzero(flat)
            cells, tally = np.unravel_index(seen, shape), flat[seen]
        else:
            rows = np.stack(cols, axis=1) if names else np.empty((int(keep.sum()), 0))
            cells, tally = np.unique(rows, axis=0, return_counts=True)
            cells = cells.T
        table = DiscreteDataset._from_codes(
            dict.fromkeys(names),
            dict(zip(names, cells)),
            {n: self.column_states(n) for n in names},
            len(tally),
        )
        return Counter(dict(zip(table.project(names), tally.tolist())))

    def with_columns(
        self, new_columns: Mapping[str, Sequence[Optional[str]]],
        new_states: Mapping[str, Sequence[str]],
    ) -> "DiscreteDataset":
        """Copy with extra columns appended."""
        for name, col in new_columns.items():
            if len(col) != self._n:
                raise SchemaMismatch(f"column {name!r} has wrong length")
        names = list(new_columns)
        added, states = _encode(
            names, [new_columns[n] for n in names], new_states, (MISSING,)
        )
        return DiscreteDataset._from_codes(
            self.columns + tuple(names),
            self.codes | added,
            {**self.states, **states},
            self._n,
        )

    # -- CSV ----------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self._label_rows(self.columns, "NA"))
        return buf.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(
        cls, text: str, states: Mapping[str, Sequence[str]] | None = None
    ) -> "DiscreteDataset":
        """The dataset a CSV text holds; "" and "NA" cells read as missing.
        Distinct records are checked in order of first occurrence, so an
        error names the first bad row."""
        try:
            header, records, ids = _tokenise(text)
        except csv.Error as exc:
            raise SchemaMismatch(f"unreadable CSV: {exc}") from None
        if not header:
            raise SchemaMismatch("empty CSV: no header row")
        if len(set(header)) != len(header):
            raise SchemaMismatch("duplicate column names")
        for raw in records:
            if len(raw) != len(header):
                raise SchemaMismatch(
                    f"row of width {len(raw)} under a {len(header)}-column header"
                )
        cells = _by_column(records, len(header))
        codes, states = _encode(header, cells, states, ("", "NA"))
        gathered = {c: col[ids] for c, col in codes.items()}
        return cls._from_codes(header, gathered, states, len(ids))

    @classmethod
    def load_csv(
        cls, path, states: Mapping[str, Sequence[str]] | None = None
    ) -> "DiscreteDataset":
        """The dataset the CSV file at `path` holds, read as the CLI reads
        it: in universal-newline mode, so "\r\n" and a lone "\r" end lines
        as "\n" does, quoted cells included."""
        with open(path) as fh:
            return cls.from_csv(fh.read(), states)


def marginal_counts(table: Mapping[tuple, float], positions: Sequence[int]) -> Counter:
    """`table` summed onto the key entries at `positions`, adding values in
    the table's order."""
    out: Counter = Counter()
    for key, c in table.items():
        out[tuple(key[i] for i in positions)] += c
    return out


@dataclass
class ProbTable:
    """A joint probability table over named discrete variables.

    entries maps full state tuples (aligned with `variables`) to
    probabilities. Entries must be nonnegative and sum to 1 within 1e-9;
    omitted cells are zero.
    """

    variables: tuple[str, ...]
    entries: dict[tuple[str, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.entries = {tuple(k): float(v) for k, v in self.entries.items()}
        for key, p in self.entries.items():
            if len(key) != len(self.variables):
                raise SchemaMismatch(f"entry {key} has wrong arity")
            if p < -1e-12:
                raise SchemaMismatch(f"negative probability at {key}")
        total = sum(self.entries.values())
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise SchemaMismatch(f"probabilities sum to {total}, not 1")

    def prob(self, key: Sequence[str]) -> float:
        return self.entries.get(tuple(key), 0.0)

    def marginal(self, names: Sequence[str]) -> "ProbTable":
        idx = [self.variables.index(n) for n in names]
        return ProbTable(tuple(names), marginal_counts(self.entries, idx))

    def l1_distance(self, other: "ProbTable") -> float:
        if self.variables != other.variables:
            raise SchemaMismatch("tables are over different variables")
        keys = set(self.entries) | set(other.entries)
        return sum(abs(self.prob(k) - other.prob(k)) for k in keys)

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "entries": [
                [list(key), p] for key, p in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProbTable":
        return cls(
            tuple(payload["variables"]),
            {tuple(key): p for key, p in payload["entries"]},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ProbTable":
        return cls.from_dict(json.loads(text))


def empirical_joint(ds: DiscreteDataset, names: Sequence[str]) -> ProbTable:
    """Complete-case relative frequencies over the named columns."""
    counts = ds.counts(names)
    total = sum(counts.values())
    if total == 0:
        raise EmptySelection(f"no complete rows over {list(names)}")
    return ProbTable(
        tuple(names), {k: c / total for k, c in counts.items()}
    )
