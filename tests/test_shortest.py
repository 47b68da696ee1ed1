"""The float and integer kernels against the texts repr and str write, byte for byte."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoyield import shortest


def written(cells) -> bytes:
    """The rows of a kernel matrix as lines, with the padding deleted."""
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines[lines != shortest.PAD].tobytes()


def assert_floats_match_repr(values):
    x = np.asarray(values, dtype=np.float64)
    got = written(shortest.float_cells(x)).split(b"\n")[:-1]
    want = [repr(v).encode() for v in x.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, f"{len(wrong)} of {len(want)} differ, first {wrong[:5]}"


def neighbours(x):
    """Each value with the doubles one ulp below and above it."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def finite(x):
    return x[np.isfinite(x)]


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
    assert_floats_match_repr(finite(bits.view(np.float64)))


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = finite(neighbours(np.concatenate([twos, tens])))
    assert_floats_match_repr(np.concatenate([values, -values]))


def test_smallest_subnormals():
    assert_floats_match_repr(np.arange(1, 10 ** 5 + 1, dtype=np.uint64).view(np.float64))


def test_integers():
    assert_floats_match_repr(np.arange(-10 ** 5, 10 ** 5 + 1, dtype=np.float64))


def test_short_decimals():
    rng = np.random.default_rng(7)
    mantissas = rng.integers(1, 10 ** rng.integers(1, 8, 3 * 10 ** 5))
    exponents = rng.integers(-330, 310, 3 * 10 ** 5)
    values = np.array([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])
    assert_floats_match_repr(finite(values))


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.5e-323, sys.float_info.max, -sys.float_info.max, sys.float_info.min,
    2.2250738585072009e-308, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15, 1e-5, 0.1, 1 / 3,
    123456789.125, 1e22, 1e23, 5e-310, 2 ** 53, 2 ** 53 + 2.0, 1e100, 1.7976931348623157e308,
])
def test_edges(value):
    assert_floats_match_repr([value, -value])


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_any_finite_floats(values):
    assert_floats_match_repr(values)


def test_float_pieces_join_up(monkeypatch):
    monkeypatch.setattr(shortest, "_PIECE", 7)
    assert_floats_match_repr([0.5, 1e300, -2.5e-300, 3.0, 0.1] * 5)


def test_int64_extremes_and_digit_counts():
    edges = [0, 1, -1, 9, -9, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1]
    edges += [s * (10 ** k + d) for k in range(1, 19) for d in (-1, 0, 1) for s in (1, -1)]
    edges += np.random.default_rng(3).integers(-2 ** 63, 2 ** 63, 10 ** 4, dtype=np.int64).tolist()
    got = written(shortest.int_cells(np.array(edges, dtype=np.int64))).split(b"\n")[:-1]
    assert got == [str(v).encode() for v in edges]


def test_scaling_table_holds_126_bit_powers():
    scaling = shortest._tables()[0]
    g1, g0 = scaling[0].tolist(), ((scaling[3] << np.uint64(32)) | scaling[4]).tolist()
    assert all(2 ** 125 <= hi * 2 ** 63 + lo < 2 ** 126 for hi, lo in zip(g1, g0))
    assert all(lo < 2 ** 63 for lo in g0)
