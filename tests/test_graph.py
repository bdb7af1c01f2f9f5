import os
import threading
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgain import Graph, ParameterError, ParseError, parse_edge_list
from pgain import graph as graph_module


def parse(text):
    return parse_edge_list(StringIO(text))


class TestParsing:
    def test_triangle(self):
        g = parse("a b\nb c\nc a\n")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert list(g.degrees) == [2, 2, 2]

    def test_duplicate_and_self_loop(self):
        g = parse("1 2\n2 1\n1 1\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.self_loops_dropped == 1
        assert g.duplicates_collapsed == 1

    def test_konect_style_comments(self):
        g = parse("% sym unweighted\n% 3 3\n# also a comment\n1 2\n2 3\n")
        assert (g.node_count, g.edge_count) == (3, 2)

    def test_trailing_fields_ignored(self):
        g = parse("a b 1.5 1234567\nb c 2.0 1234568\n")
        assert g.edge_count == 2

    def test_blank_lines_skipped(self):
        g = parse("\na b\n   \nb c\n")
        assert g.edge_count == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("a b\nonly_one_token\n")

    def test_empty_input_is_empty_graph(self):
        g = parse("")
        assert (g.node_count, g.edge_count) == (0, 0)

    def test_self_loop_only_node_is_isolated(self):
        g = parse("1 1\n")
        assert (g.node_count, g.edge_count) == (1, 0)
        assert g.self_loops_dropped == 1
        assert list(g.degrees) == [0]

    def test_labels_first_seen_order(self):
        g = parse("x y\nz x\n")
        assert g.labels == ("x", "y", "z")

    def test_directed_input_collapses(self):
        g = parse("a b\nb a\nc a\n")
        assert g.edge_count == 2
        assert g.duplicates_collapsed == 1

    def test_path_input(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        g = parse_edge_list(path)
        assert g.edge_count == 2


class TestStructure:
    def test_neighbors_sorted(self):
        g = parse("5 1\n5 4\n5 2\n5 3\n")
        assert list(g.neighbors(0)) == [1, 2, 3, 4]

    def test_has_edge(self, s4):
        assert g_has_all_star_edges(s4)
        assert 2 not in s4.neighbors(1)

    def test_degree_examples(self, k3, p2, s4):
        assert list(k3.degrees) == [2, 2, 2]
        assert list(p2.degrees) == [1, 1]
        assert list(s4.degrees) == [4, 1, 1, 1, 1]

    def test_degree_sum_is_twice_edges(self, star_plus_tail):
        g = star_plus_tail
        assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_adjacency_symmetric(self, star_plus_tail):
        g = star_plus_tail
        for i in range(g.node_count):
            for j in g.neighbors(i):
                assert i in g.neighbors(int(j))

    def test_arrays_read_only(self, k3):
        with pytest.raises(ValueError):
            k3.indices[0] = 2


# edges 0-1, 0-2, 1-2, 2-3 as CSR rows [1 2] [0 2] [0 1 3] [2]
VALID_INDPTR = [0, 2, 4, 7, 8]
VALID_INDICES = [1, 2, 0, 2, 0, 1, 3, 2]


def csr_graph(indptr=VALID_INDPTR, indices=VALID_INDICES, n_labels=4):
    return Graph(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        labels=tuple(str(i) for i in range(n_labels)),
    )


class TestConstructorValidation:
    """Graph() rejects CSR arrays that are not a simple graph, whichever
    way the rows fall into validation blocks."""

    @pytest.fixture(params=[None, 1, 2, 3], ids=["default", "b1", "b2", "b3"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(graph_module, "VALIDATE_BLOCK", request.param)

    def test_valid_arrays_accepted(self, block):
        g = csr_graph()
        assert g.node_count == 4 and g.edge_count == 4

    def test_empty_rows_accepted(self, block):
        # isolated nodes first, between and last
        g = csr_graph([0, 0, 1, 1, 2, 2], [3, 1], n_labels=5)
        assert g.edge_count == 1

    @pytest.mark.parametrize("indices", [
        [1, 2, 0, 2, 0, 1, 3, 4],
        [1, 2, 0, 2, 0, 1, 3, -1],
    ], ids=["too-large", "negative"])
    def test_neighbour_out_of_range(self, block, indices):
        with pytest.raises(ParameterError, match="out of range"):
            csr_graph(indices=indices)

    @pytest.mark.parametrize("indices", [
        [0, 2, 0, 2, 0, 1, 3, 2],
        [1, 2, 0, 2, 0, 2, 3, 2],
        [1, 2, 0, 2, 0, 1, 3, 3],
    ], ids=["first-row", "middle-row", "last-row"])
    def test_self_loop(self, block, indices):
        with pytest.raises(ParameterError, match="self-loop"):
            csr_graph(indices=indices)

    @pytest.mark.parametrize("indices", [
        [2, 1, 0, 2, 0, 1, 3, 2],
        [1, 2, 0, 2, 1, 0, 3, 2],
        [1, 2, 0, 2, 0, 3, 1, 2],
    ], ids=["first-row", "middle-row", "row-end"])
    def test_unsorted_row(self, block, indices):
        with pytest.raises(ParameterError, match="ascending"):
            csr_graph(indices=indices)

    @pytest.mark.parametrize("indices", [
        [1, 1, 0, 2, 0, 1, 3, 2],
        [1, 2, 0, 2, 0, 1, 1, 2],
    ], ids=["first-row", "middle-row"])
    def test_duplicate_neighbour(self, block, indices):
        with pytest.raises(ParameterError, match="ascending"):
            csr_graph(indices=indices)

    @pytest.mark.parametrize("indptr", [
        [0, 2, 4, 7, 7],
        [0, 2, 4, 7, 9],
        [1, 2, 4, 7, 8],
    ], ids=["short", "long", "offset"])
    def test_indptr_does_not_span_indices(self, block, indptr):
        with pytest.raises(ParameterError, match="span"):
            csr_graph(indptr=indptr)

    def test_decreasing_indptr(self, block):
        with pytest.raises(ParameterError, match="non-decreasing"):
            csr_graph(indptr=[0, 2, 1, 7, 8])

    def test_label_count_mismatch(self):
        with pytest.raises(ParameterError, match="label count"):
            csr_graph(n_labels=3)

    @pytest.mark.parametrize("field, array", [
        ("indptr", np.array(VALID_INDPTR, dtype=np.float64)),
        ("indptr", np.array(VALID_INDPTR, dtype=np.int32)),
        ("indices", np.array(VALID_INDICES, dtype=np.int32)),
        ("indices", np.repeat(np.array(VALID_INDICES, dtype=np.int64), 2)[::2]),
    ], ids=["float-indptr", "int32-indptr", "int32-indices", "strided-indices"])
    def test_not_contiguous_int64(self, field, array):
        # the compiled kernel accepts only this layout; the numpy one would
        # take the others, so Graph() rejects them for both
        arrays = {"indptr": np.array(VALID_INDPTR, dtype=np.int64),
                  "indices": np.array(VALID_INDICES, dtype=np.int64)}
        arrays[field] = array
        with pytest.raises(ParameterError, match="contiguous 1-d int64"):
            Graph(**arrays, labels=("0", "1", "2", "3"))


def g_has_all_star_edges(s4):
    return all(leaf in s4.neighbors(0) and 0 in s4.neighbors(leaf)
               for leaf in range(1, 5))


class TestSpmv:
    def test_k3_ones_gives_degrees(self, k3):
        np.testing.assert_allclose(k3.spmv(np.ones(3)), [2.0, 2.0, 2.0])

    def test_p2_hand_computed(self, p2):
        np.testing.assert_allclose(p2.spmv(np.array([3.0, 5.0]), scale=2.0), [10.0, 6.0])

    def test_zero_vector(self, s4):
        np.testing.assert_array_equal(s4.spmv(np.zeros(5)), np.zeros(5))

    def test_dimension_mismatch(self, k3):
        with pytest.raises(ParameterError):
            k3.spmv(np.ones(4))

    def test_non_finite_scale(self, k3):
        with pytest.raises(ParameterError):
            k3.spmv(np.ones(3), scale=float("inf"))

    def test_deterministic(self, star_plus_tail):
        x = np.linspace(-1, 1, star_plus_tail.node_count)
        first = star_plus_tail.spmv(x, scale=0.3)
        second = star_plus_tail.spmv(x, scale=0.3)
        assert np.array_equal(first, second)

    def test_out_buffer_reused(self, s4):
        x = np.arange(5, dtype=np.float64)
        buf = np.empty(5)
        result = s4.spmv(x, scale=2.0, out=buf)
        assert result is buf
        np.testing.assert_array_equal(result, s4.spmv(x, scale=2.0))

    def test_out_must_not_alias_input(self, s4):
        x = np.ones(5)
        with pytest.raises(ParameterError, match="alias"):
            s4.spmv(x, out=x)

    def test_out_wrong_shape_rejected(self, s4):
        with pytest.raises(ParameterError):
            s4.spmv(np.ones(5), out=np.empty(4))


edge_lists = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=80
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_from_edges_invariants(pairs):
    g = Graph.from_edges(pairs)
    deg = g.degrees
    assert int(deg.sum()) == 2 * g.edge_count
    # spmv on the all-ones vector reproduces degrees on every graph
    np.testing.assert_allclose(g.spmv(np.ones(g.node_count)), deg.astype(float))
    for i in range(g.node_count):
        row = g.neighbors(i)
        assert np.all(np.diff(row) > 0)
        assert i not in row


@given(edge_lists, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_spmv_respects_symmetry(pairs, seed):
    g = Graph.from_edges(pairs)
    if g.edge_count == 0:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.node_count)
    y = rng.standard_normal(g.node_count)
    left = float(y @ g.spmv(x))
    right = float(x @ g.spmv(y))
    scale = max(abs(left), abs(right), 1e-30)
    assert abs(left - right) <= 1e-12 * scale


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_matches_adjacency_sets(pairs):
    g = Graph.from_edges(pairs)
    index = {label: i for i, label in enumerate(g.labels)}
    adjacency = [set() for _ in g.labels]
    for a, b in pairs:
        i, j = index[str(a)], index[str(b)]
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    assert list(g.indptr) == [0] + list(np.cumsum([len(s) for s in adjacency]))
    assert list(g.indices) == [j for s in adjacency for j in sorted(s)]
    distinct = sum(len(s) for s in adjacency) // 2
    loops = sum(str(a) == str(b) for a, b in pairs)
    assert g.self_loops_dropped == loops
    assert g.duplicates_collapsed == len(pairs) - loops - distinct


# -- the vectorised reader of plain-ASCII files against the line reader -------

def read_lines(path):
    """Parse through the line reader: a text stream never takes the
    vectorised reader."""
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle)


def assert_same_graph(a, b):
    assert a.labels == b.labels
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.self_loops_dropped == b.self_loops_dropped
    assert a.duplicates_collapsed == b.duplicates_collapsed


LABEL_CHARS = [chr(c) for c in range(0x21, 0x7F)]  # printable, with % and #
SHARED_PREFIXES = ["abcdefgh", "abcdefgi", "%#%#%#%#", "12345678"]
labels_st = st.one_of(
    st.text(LABEL_CHARS, min_size=1, max_size=40),
    st.builds(lambda head, tail: (head + tail)[:40],
              st.sampled_from(SHARED_PREFIXES),
              st.text(LABEL_CHARS, max_size=32)),
)
blank_st = st.text(" \t", max_size=3)
gap_st = st.text(" \t", min_size=1, max_size=3)


@st.composite
def edge_list_files(draw):
    """Edge-list text in bytes: data lines with trailing fields, comments
    with leading whitespace, blank lines, LF or CRLF endings, loops and
    (reversed) duplicates drawn from a small label pool."""
    pool = draw(st.lists(labels_st, min_size=1, max_size=10))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
        if kind == "edge":
            u, v = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            fields = draw(st.lists(st.sampled_from(["1", "2.5", "1234567890",
                                                    "x%y", "#"]), max_size=2))
            body = draw(blank_st) + draw(gap_st).join([u, v, *fields])
            line = body + draw(blank_st)
        elif kind == "comment":
            text = draw(st.text(LABEL_CHARS + [" ", "\t"], max_size=20))
            line = draw(blank_st) + draw(st.sampled_from("%#")) + text
        else:
            line = draw(blank_st)
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("ascii")


@given(edge_list_files(), st.sampled_from([1 << 20, 64, 7]))
@settings(max_examples=300, deadline=None)
def test_ascii_reader_matches_line_reader(tmp_path_factory, raw, block):
    path = tmp_path_factory.mktemp("ascii") / "edges.txt"
    path.write_bytes(raw)
    with mock.patch.object(graph_module, "_BLOCK_BYTES", block):
        fast = graph_module._parse_ascii_file(path)
        assert fast is not None
        assert_same_graph(fast, read_lines(path))
        assert_same_graph(parse_edge_list(path), fast)


class TestAsciiReaderFallback:
    """Files the vectorised reader hands to the line reader give the line
    reader's graph or its error, with the same line number."""

    def write(self, tmp_path, raw):
        path = tmp_path / "edges.txt"
        path.write_bytes(raw)
        return path

    @pytest.mark.parametrize("raw", [
        "é b\nb c\n".encode(),  # non-ASCII label
        b"a b\rb c\nc a\n",  # lone CR: a line break to the line reader
        b"a\x0cb c\nb c\n",  # form feed: whitespace to the line reader
        b"a\x0bb\n",  # vertical tab: ditto
        b"x" * 65 + b" b\nb c\n",  # an endpoint longer than 64 bytes
    ])
    def test_same_graph(self, tmp_path, raw):
        path = self.write(tmp_path, raw)
        assert graph_module._parse_ascii_file(path) is None
        assert_same_graph(parse_edge_list(path), read_lines(path))

    @pytest.mark.parametrize("raw, line_no", [
        (b"a b\nlonely\nc d\n", 2),
        (b"% head\r\n\r\n  # note\r\na b\r\nlonely  \r\n", 5),
        (b"a b\rlonely\n", 2),
        ("a b\né\n".encode(), 2),
    ])
    def test_one_token_line_error(self, tmp_path, raw, line_no):
        path = self.write(tmp_path, raw)
        with pytest.raises(ParseError) as fast:
            parse_edge_list(path)
        with pytest.raises(ParseError) as slow:
            read_lines(path)
        assert fast.value.line_no == slow.value.line_no == line_no
        assert str(fast.value) == str(slow.value)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = self.write(tmp_path, b"a b\r\nc d\re f\n\xff g\n")
        with pytest.raises(ParseError, match="line 4: invalid UTF-8 byte 0xff"):
            parse_edge_list(path)

    def test_hash_collision_takes_the_line_reader(self, tmp_path, monkeypatch):
        lines = [f"n{i} n{(i * 7) % 50} {i}\n" for i in range(50)]
        path = self.write(tmp_path, "".join(lines).encode())
        expected = read_lines(path)
        monkeypatch.setattr(graph_module, "_hash_words",
                            lambda columns: np.zeros(columns[0].size, np.uint64))
        assert graph_module._parse_ascii_file(path) is None
        assert_same_graph(parse_edge_list(path), expected)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "edges.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=("é b\nb c\n".encode(),), daemon=True)
        result = []
        reader = threading.Thread(target=lambda: result.append(
            parse_edge_list(fifo)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        writer.join(timeout=10)
        assert not reader.is_alive() and not writer.is_alive()
        assert result[0].labels == ("é", "b", "c")

    def test_empty_and_comment_only_files(self, tmp_path):
        for raw in (b"", b"% only\n# comments\n\n"):
            path = self.write(tmp_path, raw)
            g = parse_edge_list(path)
            assert (g.node_count, g.edge_count) == (0, 0)
            assert_same_graph(g, read_lines(path))
