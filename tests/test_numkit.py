import numpy as np
import pytest

from hssfl.errors import NumericalFailureError, ParseError, ShapeError
from hssfl.numkit import (
    RngStream,
    as_matrix,
    check_finite,
    lipschitz_ratios,
    matrix_from_csv,
    matrix_to_csv,
)


class TestGaussianSample:
    """Normal draws from an RngStream's generator: one key, one sequence."""

    def test_same_stream_identical(self):
        s = RngStream(42, client=1, round=2, epoch=3, purpose="x")
        a = s.generator().normal(size=(4, 4))
        b = s.generator().normal(size=(4, 4))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, client=0).generator().normal(size=(4, 4))
        b = RngStream(42, client=1).generator().normal(size=(4, 4))
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        m = RngStream(0, purpose="lln").generator().normal(size=(1000, 100))
        assert abs(m.mean()) < 0.02
        assert abs(m.std() - 1.0) < 0.02

    def test_repeated_runs_bit_identical(self):
        vals = {RngStream(9, round=5).generator().normal(size=(8, 8)).tobytes() for _ in range(5)}
        assert len(vals) == 1


class TestFiniteness:
    def test_non_finite_input_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="x contains non-finite entries"):
            as_matrix([[1.0, np.nan]], "x")

    def test_non_finite_result_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailureError, match="non-finite values in y"):
            check_finite(np.array([[np.inf]]), "y")


class TestCsv:
    def test_round_trip_exact(self):
        m = RngStream(11, purpose="csv").generator().normal(size=(5, 3)) * 1e-7
        text = matrix_to_csv(m)
        assert np.array_equal(matrix_from_csv(text), m)

    def test_format(self):
        assert matrix_to_csv(np.array([[1.5, 2.0]])) == "1.5,2.0\n"

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError) as exc:
            matrix_from_csv("1.0,2.0\n1.0,oops\n")
        assert exc.value.line == 2


class TestRngStream:
    def test_child_overrides_coordinates(self):
        s = RngStream(5)
        c = s.child(client=2, round=7).sub("aug")
        assert (c.client, c.round, c.purpose) == (2, 7, "/aug")

    def test_sub_streams_independent(self):
        s = RngStream(5, purpose="p")
        a = s.sub("one").generator().normal(size=(3, 3))
        b = s.sub("two").generator().normal(size=(3, 3))
        assert not np.array_equal(a, b)


class TestLipschitzRatios:
    def test_pair_order_and_coincident_points(self):
        points = [np.array([0.0]), np.array([1.0]), np.array([1.0]), np.array([3.0])]
        values = [np.array([0.0]), np.array([2.0]), np.array([5.0]), np.array([3.0])]
        # pairs (0,1), (0,2), (0,3), (1,3), (2,3); (1,2) share a point
        assert lipschitz_ratios(points, values) == [2.0, 5.0, 1.0, 0.5, 1.0]
