"""The CSV text of floats and labels must be the bytes CPython writes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgain import _csvtext


def texts(values):
    """Each value's text as ``float_cells`` writes it, NULs removed."""
    cells = _csvtext.float_cells(np.asarray(values, dtype=np.float64))
    return [row[row != 0].tobytes() for row in cells]


def assert_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    want = [b"%.17g" % v for v in values.tolist()]
    got = texts(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_is_percent_17g(patterns):
    assert_percent_g(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    # 1e-07 and 1e-06 lie just below their power: D rounds up to 1e16 only
    # at the exponent one too high
    powers = np.array([float(f"1e{p}") for p in range(-330, 309)])
    assert_percent_g(np.concatenate([
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]))


def test_exact_decimal_ties_round_half_even():
    # k / 2**j whose exact decimal has 18 significant digits, the last a 5:
    # a tie at 17 digits, so both directions of round-half-even are taken
    ties = []
    for j in range(1, 60):
        low, high = -(-10 ** 17 // 5 ** j), (10 ** 18 - 1) // 5 ** j
        for k in np.linspace(low, min(high, 2 ** 53 - 1), 50).astype(np.int64):
            k = int(k) | 1
            if 10 ** 17 <= k * 5 ** j < 10 ** 18:
                ties.append(k / 2 ** j)
    assert len(ties) > 1000
    ties = np.array(ties)
    assert_percent_g(np.concatenate([ties, -ties]))
    # and the small ones k / 2**j, exact in fewer digits
    small = np.arange(1, 2000, 2)[:, None] / 2.0 ** np.arange(0, 60)
    assert_percent_g(small.ravel())


@pytest.mark.parametrize("edge", [1e-11, 1e-5, 1e-4, 1e16, 1e17])
def test_range_edges(edge):
    around = [edge]
    for direction in (np.inf, -np.inf):
        v = edge
        for _ in range(4):
            v = np.nextafter(v, direction)
            around.append(v)
    around = np.array(around)
    assert_percent_g(np.concatenate([around, -around, around * 1.5]))


def test_special_values():
    tiny = 5e-324
    assert_percent_g([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                      tiny, -tiny, 2.2250738585072009e-308,
                      2.2250738585072014e-308, 1.7976931348623157e308,
                      -1.5, -123456789.125, -1e-9, -0.1, 1e20, 3.0])
    assert texts([0.0, -0.0, math.nan]) == [b"0", b"-0", b"nan"]


def test_random_values_across_the_range():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(20000) * 10.0 ** rng.uniform(-13, 19, 20000)
    assert_percent_g(values)
    # round numbers: integers, and few digits after the point
    assert_percent_g(np.arange(-5000, 5000) / 8.0)
    assert_percent_g(rng.integers(0, 10 ** 16, 1000).astype(np.float64))


def test_empty():
    assert _csvtext.float_cells(np.array([])).shape == (0, _csvtext.CELL)
    assert len(_csvtext.LabelCells([])) == 0


def test_label_cells(monkeypatch):
    monkeypatch.setattr(_csvtext, "LABEL_CHUNK", 4)
    cap = _csvtext.LABEL_CAP
    labels = ["a", "é日", "x" * cap, "y" * (cap + 1), "n\0ul", "bc"]
    cells = _csvtext.LabelCells(labels)
    assert cells.matrix.shape == (6, cap)
    assert cells.wide_rows.tolist() == [3, 4]
    assert cells.wide_text == [b"y" * (cap + 1), b"n\0ul"]
    rows = [row[row != 0].tobytes() for row in cells.matrix]
    assert rows == [b"a", "é日".encode(), b"x" * cap, b"", b"", b"bc"]


def test_rows_with_wide_labels_and_nan():
    labels = ["w" * 40, "b", "é" * 20, "d\0"]
    cells = _csvtext.LabelCells(labels)
    scores = np.array([1.5, math.nan, -2e-300, 0.25])
    got = _csvtext.row_bytes([cells, scores, scores], 0, 4)
    cells_text = ["1.5", "", f"{-2e-300:.17g}", "0.25"]
    want = "".join(f"{label},{s},{s}\n" for label, s in zip(labels, cells_text))
    assert got == want.encode()
