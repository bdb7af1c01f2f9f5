"""Undirected simple graphs in CSR adjacency form.

Graphs are built from whitespace-separated edge lists (KONECT-style ``%`` or
``#`` comment lines are skipped). Node labels are arbitrary tokens mapped to
contiguous internal indices in first-seen order; self-loops are dropped (and
counted) and duplicate edges collapsed, so the adjacency matrix is always a
symmetric 0/1 matrix. Instances are immutable and safe for concurrent reads.

A file path is read by a vectorised reader when the file is plain ASCII: numpy
finds the first two tokens of each line block by block, packs them into
uint64 words, groups equal labels by a hash checked word by word, and numbers
them by first occurrence. A file it cannot take exactly (non-ASCII or control
bytes, a lone CR, a line with one token, a hash collision, a label over 64
bytes, or a path that is not a regular file) goes through the line reader,
which streams and iterables always use; both give the same graph.
The CSR arrays come from sorting packed ``lo * n + hi`` edge keys.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from pgain import backend
from pgain.errors import ParameterError, ParseError

COMMENT_PREFIXES = ("%", "#")
VALIDATE_BLOCK = 1 << 16  # stored neighbours checked per block in Graph()


@dataclass(frozen=True)
class Graph:
    """CSR adjacency of a simple undirected graph.

    ``indptr``/``indices`` follow the usual compressed-row convention: the
    neighbors of internal node ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending, with every undirected edge stored in both directions.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...]
    self_loops_dropped: int = 0
    duplicates_collapsed: int = 0

    def __post_init__(self):
        # The compiled kernel takes only this layout; checking it here makes
        # a graph behave the same on either backend.
        for a in (self.indptr, self.indices):
            if a.dtype != np.int64 or a.ndim != 1 or not a.flags.c_contiguous:
                raise ParameterError(
                    "indptr and indices must be contiguous 1-d int64 arrays")
        n = self.indptr.size - 1
        if n < 0 or len(self.labels) != n:
            raise ParameterError("label count does not match indptr")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ParameterError("indptr does not span indices")
        if np.any(self.indptr[1:] < self.indptr[:-1]):
            raise ParameterError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ParameterError("neighbor index out of range")
            # The row checks run on blocks of about VALIDATE_BLOCK entries,
            # so their temporaries do not grow with the graph.
            firsts = np.searchsorted(
                self.indptr,
                np.arange(0, self.indices.size, VALIDATE_BLOCK),
                side="right",
            ) - 1
            cuts = np.append(firsts, n).tolist()
            for r0, r1 in zip(cuts[:-1], cuts[1:]):
                _check_rows(self.indptr[r0:r1 + 1], self.indices, r0)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[object, object]]) -> "Graph":
        """Build a Graph from (label, label) pairs.

        Labels are coerced to ``str`` and indexed in first-seen order.
        Self-loops are dropped (counted), duplicates collapsed.
        """
        index: dict[str, int] = {}
        us: list[int] = []
        vs: list[int] = []
        loops = 0
        for a, b in pairs:
            ia = _intern(index, str(a))
            ib = _intern(index, str(b))
            if ia == ib:
                loops += 1
                continue
            us.append(ia)
            vs.append(ib)
        labels = tuple(index)
        return cls._from_index_pairs(
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            labels,
            self_loops_dropped=loops,
        )

    @classmethod
    def _from_index_pairs(cls, us, vs, labels, self_loops_dropped=0) -> "Graph":
        # Each undirected edge is the packed key lo*n + hi; sorting the keys
        # orders the pairs lexicographically, so one sort deduplicates and
        # a second sort of both directions yields the CSR rows in order.
        n = len(labels)
        key = np.minimum(us, vs) * n + np.maximum(us, vs)
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
        dupes = len(us) - key.size
        lo, hi = np.divmod(key, n)
        both = np.concatenate([hi * n + lo, key])
        del key, lo, hi
        both.sort()
        indptr = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) * n)
        indices = np.remainder(both, n, out=both)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        return cls(
            indptr=indptr,
            indices=indices,
            labels=labels,
            self_loops_dropped=self_loops_dropped,
            duplicates_collapsed=dupes,
        )

    # -- basic accessors ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree, shared read-only array."""
        d = np.diff(self.indptr)
        d.flags.writeable = False
        return d

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    # -- numerics -----------------------------------------------------------

    def spmv(self, x: np.ndarray, scale: float = 1.0,
             out: np.ndarray | None = None) -> np.ndarray:
        """Return ``scale * (A @ x)``.

        Deterministic: per-row summation follows the sorted neighbor order.
        ``out``, when given, must be a float64 buffer of the right length
        not aliasing ``x`` (iteration loops reuse buffers to avoid a fresh
        allocation per product).
        """
        if not math.isfinite(scale):
            raise ParameterError("scale must be finite")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.node_count,):
            raise ParameterError(
                f"vector length {x.shape} does not match node count {self.node_count}"
            )
        if out is None:
            out = np.empty(self.node_count, dtype=np.float64)
        else:
            if (out.shape != x.shape or out.dtype != np.float64
                    or not out.flags.c_contiguous):
                raise ParameterError("out must be a contiguous float64 vector")
            if np.shares_memory(out, x):
                raise ParameterError("out must not alias x")
        backend.spmv_csr(self.indptr, self.indices, x, scale, out)
        return out


def _check_rows(indptr: np.ndarray, indices: np.ndarray, first: int) -> None:
    """No self-loop and strictly ascending neighbours in the rows that
    start at ``first`` and whose pointers are ``indptr``."""
    start = indptr[0]
    row = indices[start:indptr[-1]]
    owner = np.repeat(np.arange(first, first + indptr.size - 1), np.diff(indptr))
    if np.any(row == owner):
        raise ParameterError("self-loop present in adjacency")
    inrow = np.ones(row.size, dtype=bool)
    starts = indptr[1:-1] - start
    inrow[starts[starts < row.size]] = False
    if np.any((np.diff(row) <= 0) & inrow[1:]):
        raise ParameterError("neighbor lists must be strictly ascending")


def _intern(index: dict, token: str) -> int:
    i = index.get(token)
    if i is None:
        i = len(index)
        index[token] = i
    return i


def parse_edge_list(source: str | Path | TextIO | Iterable[str]) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    ``source`` may be a path or an open text stream / iterable of lines. Each
    non-comment, non-blank line must hold at least two tokens (the endpoints);
    trailing fields such as weights or timestamps are ignored. Blank lines are
    skipped. Empty input yields the empty graph. Loop lines are dropped and
    counted; their endpoint still registers its node.

    A path is first read by the vectorised ASCII reader; whatever it cannot
    take exactly goes through the line reader, which gives the same graph
    and reports errors with their line numbers.
    """
    if not isinstance(source, (str, Path)):
        return _parse_lines(source)
    # a pipe cannot be read a second time by the line reader
    if os.path.isfile(source):
        graph = _parse_ascii_file(source)
        if graph is not None:
            return graph
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return _parse_lines(handle)
    except UnicodeDecodeError:
        raise _utf8_error(Path(source).read_bytes()) from None


def _parse_lines(lines) -> Graph:
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    loops = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(COMMENT_PREFIXES):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ParseError(
                f"expected two node labels, got {stripped!r}", line_no=line_no
            )
        ia = _intern(index, tokens[0])
        ib = _intern(index, tokens[1])
        if ia == ib:
            loops += 1
            continue
        us.append(ia)
        vs.append(ib)
    return Graph._from_index_pairs(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        tuple(index),
        self_loops_dropped=loops,
    )


def _utf8_error(raw: bytes) -> ParseError:
    """ParseError for the first invalid UTF-8 byte of ``raw``, with the line
    number the text-mode reader gives it (LF, CRLF and a lone CR each end
    a line)."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line_no = (head.count(b"\n") + head.count(b"\r")
                   - head.count(b"\r\n") + 1)
        return ParseError(f"invalid UTF-8 byte 0x{raw[exc.start]:02x}",
                          line_no=line_no)
    return ParseError("input changed while it was read")


# -- vectorised reader for plain-ASCII files ---------------------------------
#
# The file is read in blocks of whole lines. In each block numpy finds the
# first two tokens of every line and packs each into little-endian uint64
# words, zero-padded (a token never holds a NUL byte, so equal words mean
# equal tokens). Across the file, tokens are sorted by a hash of their words,
# tokens with equal hashes are checked word by word to be equal, and the
# groups are numbered in order of first occurrence. Anything the line reader
# would treat differently makes the reader return None.

_BLOCK_BYTES = 1 << 20
_MAX_WORDS = 8  # endpoint labels longer than 64 bytes take the line reader
_PAD = 8 * _MAX_WORDS  # zero bytes after each block, so word reads stay inside
_LOW_BYTES = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)


def _parse_ascii_file(path) -> Graph | None:
    with open(path, "rb") as handle:
        columns = _read_endpoint_words(handle)
    if columns is None:
        return None
    if not columns:
        empty = np.zeros(0, dtype=np.int64)
        return Graph._from_index_pairs(empty, empty, ())
    grouped = _group_tokens(columns)
    if grouped is None:
        return None
    order, new_group = grouped
    first = np.minimum.reduceat(order, np.flatnonzero(new_group))
    rank = np.argsort(first)  # groups in order of first occurrence
    labels = _decode(columns, first[rank])
    del columns, first
    node = np.empty(rank.size, dtype=np.int64)  # node id of each group
    node[rank] = np.arange(rank.size)
    group = np.cumsum(new_group) - 1  # group of each token in hash order
    del new_group
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = node[group]
    del order, group
    us, vs = ids[0::2], ids[1::2]
    loop = us == vs
    loops = int(np.count_nonzero(loop))
    if loops:
        us, vs = us[~loop], vs[~loop]
    del ids, loop
    return Graph._from_index_pairs(us, vs, labels, self_loops_dropped=loops)


def _read_endpoint_words(handle) -> list[np.ndarray] | None:
    """Word columns of every endpoint token in file order, or None when a
    block needs the line reader. The columns are sized for the token count
    the bytes read so far predict for the whole file (pages never written
    cost no memory) and at least doubled when that falls short."""
    total = os.fstat(handle.fileno()).st_size
    columns: list[np.ndarray] = []
    capacity = count = done = 0
    for block in _line_blocks(handle):
        done += block.size - 1 - _PAD
        words = _endpoint_words(block)
        if words is None:
            return None
        end = count + (words[0].size if words else 0)
        if end > capacity:
            capacity = max(end, 2 * capacity, int(end * 1.05 * total / done))
            columns = [_resized(column[:count], capacity) for column in columns]
        while len(columns) < len(words):
            columns.append(np.zeros(capacity, dtype=np.uint64))
        for column, word in zip(columns, words):
            column[count:end] = word
        count = end
    return [column[:count] for column in columns]


def _resized(column: np.ndarray, capacity: int) -> np.ndarray:
    out = np.zeros(capacity, dtype=np.uint64)
    out[: column.size] = column
    return out


def _line_blocks(handle) -> Iterator[np.ndarray]:
    """Yield the file as uint8 arrays of whole lines, about ``_BLOCK_BYTES``
    each and followed by ``_PAD`` zero bytes; a missing final newline is
    supplied."""
    parts: list = []
    for chunk in iter(lambda: handle.read(_BLOCK_BYTES), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield _padded(parts + [memoryview(chunk)[:cut]])
            parts = []
        parts.append(memoryview(chunk)[cut:])
    if any(len(part) for part in parts):
        yield _padded(parts + [b"\n"])


def _padded(parts) -> np.ndarray:
    size = sum(len(part) for part in parts)
    out = np.zeros(1 + size + _PAD, dtype=np.uint8)
    out[0] = ord("\n")  # so that the first line starts after a newline
    pos = 1
    for part in parts:
        out[pos : pos + len(part)] = np.frombuffer(part, dtype=np.uint8)
        pos += len(part)
    return out


def _endpoint_words(padded: np.ndarray) -> list[np.ndarray] | None:
    """Words of the two endpoint tokens of every data line in one block,
    interleaved (u, v, u, v, ...): column ``k`` holds bytes 8k..8k+7. None
    when the block holds a byte the line reader could see differently (non-
    ASCII, a control byte, a lone CR), a data line with a single token or
    an endpoint longer than ``_MAX_WORDS`` words."""
    data = padded[:-_PAD]
    if data.max() >= 0x80:
        return None
    control = np.flatnonzero(data < 0x20)
    code = data[control]
    newline = code == ord("\n")
    if not np.all(newline | (code == ord("\t")) | (code == ord("\r"))):
        return None
    if np.any(data[control[code == ord("\r")] + 1] != ord("\n")):
        return None
    token = data > 0x20
    bounds = np.flatnonzero(token[1:] != token[:-1]) + 1
    del token
    starts, lengths = bounds[0::2], bounds[1::2] - bounds[0::2]
    # the first token after each newline, once per line that has tokens;
    # the tokens up to the next such first token share its line
    firsts = np.searchsorted(starts, control[newline])
    firsts = firsts[np.diff(firsts, append=starts.size) > 0]
    per_line = np.diff(firsts, append=starts.size)
    lead = data[starts[firsts]]
    data_line = (lead != ord("%")) & (lead != ord("#"))
    if np.any(per_line[data_line] < 2):
        return None
    tokens = np.repeat(firsts[data_line], 2)
    tokens[1::2] += 1
    starts, lengths = starts[tokens], lengths[tokens]
    width = -(-int(lengths.max()) // 8) if lengths.size else 0
    if width > _MAX_WORDS:
        return None
    # window[i] is the little-endian word of the 8 bytes at offset i
    window = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded,
                        strides=(1,))
    columns = []
    for k in range(width):
        word = window[starts + 8 * k].astype(np.uint64)
        word &= _LOW_BYTES[np.clip(lengths - 8 * k, 0, 8)]
        columns.append(word)
    return columns


def _hash_words(columns: list[np.ndarray]) -> np.ndarray:
    """64-bit hash of each token: the splitmix64 finalizer chained over its
    words (a bijection for one-word tokens)."""
    h = np.zeros(columns[0].size, dtype=np.uint64)
    for column in columns:
        h ^= column
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def _group_tokens(columns: list[np.ndarray]):
    """Sort the tokens by hash: the sorting permutation, and a mask that is
    True where a token differs from the one before it in that order. None if
    two distinct tokens share a hash, which could leave equal tokens apart."""
    h = _hash_words(columns)
    order = np.argsort(h)
    h.sort()
    new_group = np.empty(h.size, dtype=bool)
    new_group[:1] = True
    np.not_equal(h[1:], h[:-1], out=new_group[1:])
    del h
    for column in columns:
        words = column[order]
        if not np.all((words[1:] == words[:-1]) | new_group[1:]):
            return None
    return order, new_group


def _decode(columns: list[np.ndarray], rows: np.ndarray) -> tuple[str, ...]:
    table = np.empty((rows.size, len(columns)), dtype="<u8")
    for k, column in enumerate(columns):
        table[:, k] = column[rows]
    raw = table.view(f"S{8 * len(columns)}").ravel()
    step = 1 << 14  # bytes objects for one slice at a time
    return tuple(label.decode("ascii") for i in range(0, raw.size, step)
                 for label in raw[i : i + step].tolist())
