"""The numpy formatter against Python's repr and str, value by value."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmixtime.numtext import BLOCK, float_cells, int_cells, join


def lines(cells) -> list[str]:
    return join([cells, b"\n"]).decode().split("\n")[:-1]


def assert_reprs(values):
    """Every value formats as repr writes it; a failure names the first few that do not."""
    values = np.asarray(values, dtype=np.float64)
    for k in range(0, values.size, BLOCK):
        block = values[k:k + BLOCK]
        if join([float_cells(block), b"\n"]) != "".join(f"{v!r}\n" for v in block.tolist()).encode():
            bad = [(v, got) for v, got in zip(block.tolist(), lines(float_cells(block))) if got != repr(v)]
            pytest.fail(f"formatted unlike repr (value, text): {bad[:5]}")


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    both = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([both, -both])


def test_random_bit_patterns_in_repr_fixed_notation():
    # a million random mantissas and signs, exponents across [2**-14, 2**54):
    # the fixed-notation range [1e-4, 1e16) and a margin on both sides
    rng = np.random.default_rng(20240521)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 14, 1023 + 54, bits.size).astype(np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    assert_reprs(bits.view(np.float64))


def test_random_bit_patterns_anywhere():
    # every exponent, nan payloads and subnormals included
    bits = np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_reprs(bits.view(np.float64))


def test_powers_of_two_and_ten_with_both_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), 10.0 ** np.arange(-323, 309)])
    assert_reprs(with_neighbours(powers[powers > 0]))


def test_the_edges_of_fixed_notation_and_of_exact_integers():
    two53 = 2.0**53
    values = [1e-4, 1e16, 1e15, 1e-3, 9999999999999998.0, 0.1, 0.2, 0.3, 2.5, 1e-5]
    values += [two53 + k for k in range(-64, 65)] + [2.0**52 + k / 2 for k in range(-16, 17)]
    edges = np.array([1e-4, 1e16])
    for _ in range(8):  # 8 steps of one ulp either way
        edges = np.unique(with_neighbours(edges))
    assert_reprs(with_neighbours(np.concatenate([values, edges])))


def test_zeros_subnormals_non_finite_and_exact_ties():
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.225073858507201e-308]
    specials += [2.2250738585072014e-308, 1.7976931348623157e308, 0.5 + 2.0**-17]
    rng = np.random.default_rng(3)
    # short binary fractions: many are exact decimal ties between two shortest strings
    dyadic = np.ldexp(rng.integers(1, 2**20, 100_000).astype(float), -rng.integers(0, 60, 100_000))
    assert_reprs(np.concatenate([specials, dyadic, -dyadic]))
    assert lines(float_cells([1.5, np.inf, np.nan, -np.inf], nonfinite="null")) == ["1.5", "null", "null", "null"]


def test_decimal_data_as_surveys_record_it():
    rng = np.random.default_rng(11)
    places = rng.integers(0, 9, 100_000)
    rounded = np.round(rng.random(100_000) * 1000 * 10.0**places) / 10.0**places
    assert_reprs(np.concatenate([rounded, rng.exponential(0.3, 50_000), np.round(rng.random(20_000), 3)]))


def test_a_column_of_one_value_and_signed_zeros():
    assert lines(float_cells(np.full(5, 0.1))) == ["0.1"] * 5
    assert lines(float_cells([0.0, -0.0, 0.0])) == ["0.0", "-0.0", "0.0"]
    assert lines(float_cells(np.full(3, -0.0))) == ["-0.0"] * 3
    assert float_cells(np.array([])).shape[0] == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats_format_as_repr(values):
    assert lines(float_cells(values)) == [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def test_integers_as_str_writes_them():
    int64 = np.iinfo(np.int64)
    values = [0, 1, -1, 9, 10, -10, 99, 100, int64.max, int64.min, int64.min + 1, -int64.max]
    values += [10**k + d for k in range(19) for d in (-1, 0, 1)] + [-(10**k) for k in range(19)]
    rng = np.random.default_rng(5)
    values += rng.integers(int64.min, int64.max, 10_000, endpoint=True).tolist()
    values += (rng.integers(0, 10**9, 10_000) * rng.choice([-1, 1], 10_000)).tolist()
    values = np.array(values, dtype=np.int64)
    assert lines(int_cells(values)) == [str(v) for v in values.tolist()]
    assert lines(int_cells(np.full(4, 7))) == ["7"] * 4


def test_join_lays_columns_and_literals_side_by_side():
    text = join([int_cells([1, 10, -3]), b",", float_cells([0.5, -2.0, 1e-7]), b";\n"])
    assert text == b"1,0.5;\n10,-2.0;\n-3,1e-07;\n"
