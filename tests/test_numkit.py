import numpy as np
import pytest

from hssfl.errors import ConfigError, NumericalFailureError, ParseError, ShapeError
from hssfl.numkit import (
    RngStream,
    as_matrix,
    check_finite,
    lipschitz_ratios,
    load_arrays,
    matrix_from_csv,
    matrix_to_csv,
    save_arrays,
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


class TestArrayFiles:
    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "a.npz")
        m = RngStream(12, purpose="npz").generator().normal(size=(5, 3)) * 1e-7
        save_arrays(path, {"m": m, "v": m[0]}, {"round": 3, "name": "x"})
        meta, arrays = load_arrays(path)
        assert meta == {"round": 3, "name": "x"}
        assert arrays["m"].tobytes() == m.tobytes()
        assert arrays["v"].tobytes() == m[0].tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]

    def test_object_array_rejected_without_unpickling(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "o.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array("{}"), a=np.array([{"x": 1}], dtype=object))

        def no_unpickling(*args, **kwargs):
            raise AssertionError("load_arrays unpickled an entry")

        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        with pytest.raises(ParseError, match="o.npz"):
            load_arrays(str(path))

    @pytest.mark.parametrize("bad", [np.array([[1.0, np.inf]]), np.array([1, 2])],
                             ids=["non_finite", "int64"])
    def test_bad_tensor_rejected(self, tmp_path, bad):
        path = str(tmp_path / "b.npz")
        save_arrays(path, {"ok": np.ones(2), "bad": bad}, {})
        with pytest.raises(ParseError, match="entry 'bad'"):
            load_arrays(path)

    @pytest.mark.parametrize("content", [b"hello", b"PK\x03\x04 torn"], ids=["text", "torn_zip"])
    def test_not_an_array_file(self, tmp_path, content):
        path = tmp_path / "x.npz"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="x.npz"):
            load_arrays(str(path))

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="nothere.npz"):
            load_arrays(str(tmp_path / "nothere.npz"))


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
