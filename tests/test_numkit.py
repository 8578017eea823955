import numpy as np
import pytest

from hssfl.errors import ConfigError, NumericalFailureError, ParseError, ShapeError
from hssfl.numkit import (
    RngStream,
    as_matrix,
    check_finite,
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_non_finite_scalar_is_a_numerical_failure(self, value):
        with pytest.raises(NumericalFailureError, match="non-finite values in z"):
            check_finite(value, "z")

    @pytest.mark.parametrize("value", [1.5, np.float64(0.0), np.array([[1e308]])])
    def test_finite_passes_through(self, value):
        assert check_finite(value) is value


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

    @pytest.mark.parametrize("text, line, message", [
        ("1.0,2.0\n\n\n3.0,x\n", 4, "non-numeric cell"),
        ("1.0,2.0\n\n3.0,4.0\n\n5.0\n", 5, "expected 2 columns, got 1"),
        ("1.0,2.0\n\n3.0,4.0,\n", 3, "non-numeric cell"),
    ], ids=["bad-cell", "ragged-row", "trailing-comma"])
    def test_parse_error_counts_blank_lines(self, text, line, message):
        with pytest.raises(ParseError, match=message) as exc:
            matrix_from_csv(text)
        assert exc.value.line == line

    def test_cell_float_reads_but_loadtxt_does_not(self):
        with pytest.raises(ParseError, match="unreadable cell") as exc:
            matrix_from_csv("1.0,2.0\n1_000,2.0\n")
        assert exc.value.line is None

    def test_blank_and_whitespace_lines_skipped(self):
        for text in ("1.0,2.0\n\n3.5,-1.0\n", "1.0,2.0\n  \n3.5,-1.0\r\n"):
            assert np.array_equal(matrix_from_csv(text), [[1.0, 2.0], [3.5, -1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n\n", " \n"])
    def test_no_rows(self, text):
        with pytest.raises(ParseError, match="no rows found"):
            matrix_from_csv(text)

    def test_parse_is_the_exact_float(self):
        m = RngStream(13, purpose="csv").generator().normal(size=(40, 7)) * 10.0 ** np.arange(-3, 4)
        assert matrix_from_csv(matrix_to_csv(m)).tobytes() == m.tobytes()


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

    @pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**128 - 1, None])
    def test_generator_is_philox_under_the_key(self, monkeypatch, key):
        # generator() hands Philox its key without Philox(key=...); the
        # state and every draw must be those of Philox(key=...)
        streams = [RngStream(5), RngStream(7, client=3, round=2, epoch=1, purpose="/aug/view1"),
                   RngStream(2**40, purpose="eval")]
        if key is not None:
            monkeypatch.setattr(RngStream, "_key", lambda self: key)
            streams = streams[:1]
        for s in streams:
            ours = s.generator()
            oracle = np.random.Generator(np.random.Philox(key=s._key()))
            assert _plain(ours.bit_generator.state) == _plain(oracle.bit_generator.state)
            for draw in (lambda g: g.normal(0.0, 0.3, size=(5, 4)),
                         lambda g: g.random((5, 4)),
                         lambda g: g.permutation(50),
                         lambda g: g.choice(50, size=10, replace=False)):
                assert draw(ours).tobytes() == draw(oracle).tobytes()
            assert _plain(ours.bit_generator.state) == _plain(oracle.bit_generator.state)


def _plain(state):
    """A bit generator state with its arrays as lists, comparable by ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state

