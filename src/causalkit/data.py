"""Categorical datasets and discrete probability tables.

A dataset is stored by column, as one small-int numpy array of state codes
per column: a code indexes the column's state tuple, and -1 marks a missing
cell. Every count is taken on those codes: the first time one is asked
for, a dataset groups its rows into distinct records, each with the number
of rows holding it, and every count is then a tally of those records
weighted by their multiplicities. One filter, `DiscreteDataset._select`,
keeps the records complete over the named columns and holding any `where`
states, and one tally, `_tally`, sums them into cells. `counts` decodes the
cells into label-keyed Counters. Discovery reads the records by label rank
(`_ranks`: each code mapped once per dataset to its label's rank among the
column's sorted labels), on one of two routes. Where the joint state space
of every column, with one more slot in a column that has a missing cell,
has no more cells than the dataset has distinct records, `_joint` scatters
the records once into that dense table, and PC's tests are sums over its
axes; otherwise, and for the BIC search, `_ranked` keeps the ranked
records complete over the named columns, and `_tally` sums them.
The label view, in which a cell is its string state label and a missing
cell is None (MISSING), is built on first use. CSV files carry a header
row, and empty or "NA" cells read back as missing. Column state spaces are
either declared explicitly (e.g. by the sampler, so states unseen in a
finite sample stay known) or inferred as the sorted distinct observed
labels.

A CSV text is read by distinct lines: `csv.reader` runs once per distinct
line, the few distinct records are checked and encoded, and each column's
codes are gathered from theirs by every row's line id. One dict numbers
the lines on first sight. The body is read in slices of about 64 KB that
end on a line end; in each, numpy hashes every line's bytes as 8-byte
words, groups equal hashes with one sort, and checks each line exactly
against the others of its group, so that only the slice's distinct lines
reach the dict. A slice that holds a line far longer than the rest, whose
lines are mostly distinct, whose check finds a collision, or that follows
such a slice of mostly new lines is split and looked up line by line
instead, through the same dict. A text
holding a quote or a carriage return, where a record may span lines, is
read with `csv.reader` over the whole text instead, one id per record,
and then encoded and gathered the same way. Unless most rows are
distinct lines, the dataset is handed the distinct lines' records, each
weighted by its line's count, and its first count groups those, not the
rows.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
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


@lru_cache(maxsize=256)
def _rank(labels: tuple[str, ...]) -> np.ndarray:
    """Per code of a column with these states, its label's position among
    the sorted labels, and -1 last, so that indexing by the missing code -1
    reads -1. Ranks keep the codes' small type: numpy 2.4 lexsorts 8- and
    16-bit keys by radix, and 10^4 unsorted intp keys take it five to ten
    times as long."""
    rank = np.full(len(labels) + 1, -1, dtype=_code_dtype(labels))
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = range(len(labels))
    rank.flags.writeable = False  # shared by every call with these labels
    return rank


def _tally(
    cols: list[np.ndarray], weights: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """(cells, tally): the distinct cells of the key columns `cols`, in
    lexicographic order with the first column primary, as one array per
    column, and the summed weights of the records in each cell."""
    if not len(weights):
        return cols, weights
    order = np.lexsort(cols[::-1]) if cols else slice(None)
    cols = [col[order] for col in cols]
    start = np.zeros(len(weights), dtype=bool)
    start[0] = True
    for col in cols:
        start[1:] |= col[1:] != col[:-1]
    first = np.flatnonzero(start)
    return [col[first] for col in cols], np.add.reduceat(weights[order], first)


def _by_column(rows: list, width: int) -> list[list]:
    # itemgetter per column: zip(*rows) allocates an iterator per row, and
    # the garbage collector's passes over those cost more than the parse
    return [list(map(itemgetter(j), rows)) for j in range(width)]


# A CSV body is read in slices, each ending at the first line end at least
# this many characters in: one slice's numpy temporaries stay in cache, and
# the allocator reuses their memory from slice to slice.
_SLICE = 1 << 16
# A line is read as little-endian 8-byte words of its UTF-8 bytes, padded
# with "\n" bytes and XORed with "\n": a line holds no "\n", so its own
# bytes turn nonzero and its padding zero, and its words fix its length.
_NL = np.uint64(0x0A0A0A0A0A0A0A0A)
# per count c of a word's bytes inside its line, the mask of those bytes
_HELD = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so each fold step is a bijection


class _LineIds(dict):
    """Line -> id, each line numbered on first sight."""

    def __missing__(self, line: str) -> int:
        self[line] = i = len(self)
        return i


def _hash(words: list[np.ndarray]) -> np.ndarray:
    """One uint64 hash per line of its words, modulo 2**64."""
    key = words[0] * _MIX
    for word in words[1:]:
        key ^= word
        key *= _MIX
    return key


def _hashed_ids(chunk: str, ids: _LineIds) -> np.ndarray | None:
    """The id in `ids` of each non-blank line of a slice of text. Lines are
    grouped by the hash of their words (`_NL`), and each is checked exactly
    against the line before it in its group; only each group's first line,
    in order of first occurrence, is looked up in `ids`. None, with `ids`
    untouched, where the padded words would take more than twice the
    slice's bytes, where most lines are distinct (decoding each costs more
    than splitting the slice), or where two unequal lines share a hash."""
    data = chunk.encode("utf-8", "surrogatepass")
    if not data.endswith(b"\n"):
        data += b"\n"
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts
    if not lengths.min():
        held = lengths > 0
        starts, ends, lengths = starts[held], ends[held], lengths[held]
        if not len(starts):
            return np.empty(0, np.intp)
    n, shortest = len(starts), int(lengths.min())
    width = (int(lengths.max()) + 7) // 8
    if n * width * 8 > 2 * len(data):
        return None
    # the 8 bytes at each offset, "\n" past the end
    padded = data + b"\n" * (8 * width)
    at = np.ndarray((len(padded) - 7,), np.dtype("<u8"), padded, 0, (1,))
    words = []
    for j in range(width):
        word = at[8 * j :][starts].astype(np.uint64, copy=False)
        word ^= _NL
        if shortest < 8 * j + 8:  # a line ends inside this word
            count = lengths - 8 * j
            np.minimum(count, 8, out=count)
            np.maximum(count, 0, out=count)
            word &= _HELD[count]
        words.append(word)
    # one sort puts equal hashes together, each group in line order: the
    # key's low bits are replaced by the line's index
    key = _hash(words)
    bits = np.uint64(n.bit_length())
    index = (np.uint64(1) << bits) - np.uint64(1)
    key &= ~index
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & index).view(np.intp)
    key >>= bits
    cut = key[1:] != key[:-1]
    if 2 * (np.count_nonzero(cut) + 1) > n:
        return None
    for word in words:
        word = word[order]
        if ((word[1:] != word[:-1]) > cut).any():
            return None
    bounds = np.concatenate(([0], np.flatnonzero(cut) + 1, [n]))
    heads = order[bounds[:-1]]
    seen = np.argsort(heads)
    lines = [
        data[s:e].decode("utf-8", "surrogatepass")
        for s, e in zip(starts[heads[seen]].tolist(), ends[heads[seen]].tolist())
    ]
    group_ids = np.empty(len(heads), np.intp)
    group_ids[seen] = np.fromiter(map(ids.__getitem__, lines), np.intp, len(lines))
    line_ids = np.empty(n, np.intp)
    line_ids[order] = np.repeat(group_ids, bounds[1:] - bounds[:-1])
    return line_ids


def _tokenise(text: str) -> tuple[list, list[list], np.ndarray]:
    """(header, records, ids) of a CSV text: the header row's cells, the
    distinct non-blank body records in order of first occurrence, and each
    body row's index into `records`. Outside quotes "\r\n" ends a line as
    "\n" does. A quote or a lone carriage return can make a record span
    lines, so a text holding one is read whole, one entry per record.

    Any other text is read line by line, in slices (`_SLICE`), through one
    dict that numbers each distinct line on first sight. A slice's lines
    are hashed (`_hashed_ids`), so that only its distinct lines are looked
    up. Where that gives up, each of the slice's lines is looked up in
    turn, and so are the next slice's if most of them were new."""
    # the one-character test first: a search for "\r\n" takes 2 ms on the
    # 1.3 MB covid text, a search for "\r" 0.02 ms
    lf = text.replace("\r\n", "\n") if "\r" in text and '"' not in text else text
    if '"' in lf or "\r" in lf:
        header, *records = csv.reader(io.StringIO(text))
        records = list(filter(None, records))
        return header, records, np.arange(len(records))
    head = lf.find("\n")
    if head < 0:
        head = len(lf)
    ids, parts, plain = _LineIds(), [np.empty(0, np.intp)], False
    start = head + 1
    while start < len(lf):
        end = lf.find("\n", start + _SLICE) + 1 or len(lf)
        chunk = lf[start:end]
        part = None if plain else _hashed_ids(chunk, ids)
        if part is None:
            known = len(ids)
            lines = filter(None, chunk.split("\n"))
            part = np.fromiter(map(ids.__getitem__, lines), np.intp)
            plain = 2 * (len(ids) - known) > len(part)
        parts.append(part)
        start = end
    return next(csv.reader([lf[:head]])), list(csv.reader(ids)), np.concatenate(parts)


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
        # what `_records` groups: the rows, or the records `from_csv` hands
        # over, with their weights
        self._distinct: tuple[dict, np.ndarray | None] = (self.codes, None)
        self._grouped: tuple[dict[str, np.ndarray], np.ndarray] | None = None
        self._ranks_of: tuple[dict[str, np.ndarray], np.ndarray] | None = None
        # (the dense joint table or None), once decided
        self._table: tuple[np.ndarray | None] | None = None

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
        if names:
            return list(zip(*cols))
        try:
            return [()] * self._n
        except MemoryError:
            raise MemoryError(f"{self._n} rows of no columns do not fit") from None

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

    def _records(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """(codes, multiplicity) of the distinct records: per column, each
        record's codes, and how many rows hold it. Grouped on first use
        from `_distinct`, the rows or the records `from_csv` hands over with
        their weights, by a mixed-radix id over every column's code + 1, so a
        missing cell is a state of its own. The id is kept in the smallest
        of int16, int32 and int64 holding the running space, and relabelled
        densely where the next column would overflow int64. The distinct
        ids are then decoded column by column from the last, through each
        relabelling's table of the ids it replaced."""
        if self._grouped is None:
            codes, weights = self._distinct
            n = self._n if weights is None else len(weights)
            ids, space, relabelled = np.zeros(n, np.int16), 1, {}
            for c in self.columns:
                radix = len(self.states[c]) + 1
                if space * radix > 2**63:
                    relabelled[c], ids = np.unique(ids, return_inverse=True)
                    space = len(relabelled[c])
                space *= radix
                # not int8: numpy 2.4 has no SIMD sort for it, and sorts
                # 10^5 int8 ids 40 times slower than int16 ones
                dtype = np.promote_types(np.int16, np.min_scalar_type(-space))
                ids = ids.astype(dtype) * radix
                ids += codes[c]
                ids += 1
            if weights is None:
                # a sort without return_index: the stable argsort that finding
                # each record's first row needs costs ten times as much
                ids, multiplicity = np.unique(ids, return_counts=True)
            else:
                ids, inverse = np.unique(ids, return_inverse=True)
                multiplicity = np.zeros(len(ids), weights.dtype)
                np.add.at(multiplicity, inverse, weights)
            records = {}
            for c in reversed(self.columns):
                ids, code = np.divmod(ids, len(self.states[c]) + 1)
                records[c] = (code - 1).astype(self.codes[c].dtype)
                if c in relabelled:
                    ids = relabelled[c][ids]
            self._grouped = records, multiplicity
        return self._grouped

    def _ranks(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """(ranks, multiplicity) of the distinct records (`_records`), each
        code mapped to its label rank, the position of its label among the
        column's sorted labels, so that ranks order as labels do; a missing
        cell keeps -1. Built once per dataset."""
        if self._ranks_of is None:
            records, multiplicity = self._records()
            ranks = {c: _rank(self.states[c])[records[c]] for c in self.columns}
            self._ranks_of = ranks, multiplicity
        return self._ranks_of

    def _joint(self) -> np.ndarray | None:
        """The dense joint table of every column, or None where it would
        hold more cells than the dataset has distinct records (`_records`):
        a sum over it then visits no more cells than a tally of the records
        visits records, and it holds at most 8 bytes a row. An int64 array with one axis per
        column, in column order: slot r counts the rows holding the label of
        rank r, and a column with a missing cell has one more slot, last,
        for the rows missing it. Decided and built once per dataset from
        the ranked records (`_ranks`)."""
        if self._table is None:
            ranks, multiplicity = self._ranks()
            shape = [
                len(self.states[c]) + bool((ranks[c] < 0).any()) for c in self.columns
            ]
            table = None
            # a dataset with no columns has no axes to sum onto
            if shape and math.prod(shape) <= len(multiplicity):
                table = np.zeros(shape, np.int64)
                # rank -1 indexes the last slot; distinct records fill
                # distinct cells
                table[tuple(ranks[c] for c in self.columns)] = multiplicity
            self._table = (table,)
        return self._table[0]

    def _select(
        self,
        names: Sequence[str],
        where: Mapping[str, str] | None = None,
        records: tuple[dict[str, np.ndarray], np.ndarray] | None = None,
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """(codes, multiplicity) of the distinct records observed in every
        named column and holding the `where` states: per name, each record's
        codes, and how many rows hold each record. A state outside its
        column's states matches no record. `records` replaces the coded
        records (`_records`) with another view of them in which -1 marks a
        missing cell, such as their ranks (`_ranks`); `where` states are
        still matched by code, so ranks take no `where`."""
        # a string is a sequence of names to Python: "XY" would count X, Y
        if isinstance(names, str):
            raise SchemaMismatch(f"names must be a sequence, not the string {names!r}")
        records, multiplicity = records or self._records()
        try:
            cols = [records[n] for n in names]
            # -2 matches no code, so an undeclared state selects no record
            held = [
                (records[c], self.states[c].index(s) if s in self.states[c] else -2)
                for c, s in (where or {}).items()
            ]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            bad = next(n for n in (*names, *(where or {})) if n not in self.columns)
            raise SchemaMismatch(f"no column named {bad!r}") from None
        keep = np.ones(len(multiplicity), dtype=bool)
        for col in cols:
            keep &= col >= 0
        for col, code in held:
            keep &= col == code
        return [col[keep] for col in cols], multiplicity[keep]

    def _ranked(self, names: Sequence[str]) -> tuple[list[np.ndarray], np.ndarray]:
        """(ranks, multiplicity) of the distinct records observed in every
        named column, by label rank (`_ranks`)."""
        return self._select(names, records=self._ranks())

    def counts(
        self, names: Sequence[str], where: Mapping[str, str] | None = None
    ) -> Counter:
        """Complete-case joint counts over the named columns, keyed by label
        tuple in the order of their codes; unobserved combinations are
        absent. `where` maps columns to states and keeps only the rows
        holding them; a state outside its column's states matches no row.

        The count runs over the dataset's distinct records, each weighted by
        how many rows hold it (see `_records`): a table of few distinct
        records is tallied without re-reading its rows, while one whose
        records are nearly all distinct is tallied over about as many
        records as rows. The records `_select` keeps are summed into cells
        by `_tally`; the observed cells, a table of at most that many rows,
        are then projected to labels.
        """
        cells, tally = _tally(*self._select(names, where))
        table = DiscreteDataset._from_codes(
            dict.fromkeys(names),
            dict(zip(names, cells)),
            {n: self.states[n] for n in names},
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
        ds = cls._from_codes(
            header, {c: col[ids] for c, col in codes.items()}, states, len(ids)
        )
        # the first count groups the distinct lines' records, each weighted
        # by its line's rows, in place of the rows; "1," and "1,NA" are two
        # lines of one record, and merge there. Not where most rows are
        # distinct lines: the argsort of the records' ids then takes longer
        # than the sort of the rows' (4.1 against 3.7 ms for 5 * 10^4 lines
        # of 10^5 rows).
        if 2 * len(records) <= len(ids):
            ds._distinct = codes, np.bincount(ids, minlength=len(records))
        return ds

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
        for name in names:
            if name not in self.variables:
                raise SchemaMismatch(f"no variable named {name!r}")
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


def empirical_joint(ds: DiscreteDataset, names: Sequence[str]) -> ProbTable:
    """Complete-case relative frequencies over the named columns."""
    counts = ds.counts(names)
    total = sum(counts.values())
    if total == 0:
        raise EmptySelection(f"no complete rows over {list(names)}")
    return ProbTable(
        tuple(names), {k: c / total for k, c in counts.items()}
    )
