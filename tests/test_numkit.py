import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hssfl import numkit
from hssfl.errors import ConfigError, NumericalFailureError, ParseError, ShapeError
from hssfl.numkit import (
    RngStream,
    as_matrix,
    check_finite,
    load_arrays,
    load_matrix_csv,
    matrix_from_csv,
    matrix_to_csv,
    one_blas_thread,
    save_arrays,
    save_matrix_csv,
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


def _from_text(text, tmp_path):
    return matrix_from_csv(text)


def _from_file(text, tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    return load_matrix_csv(str(path))


# Every parse case runs on text in memory and through a file; the text cases
# keep their plain ids.
PARSERS = ((_from_text, ""), (_from_file, "-file"))

BLANK_LINE_CASES = [
    ("bad-cell", "1.0,2.0\n\n\n3.0,x\n", 4, "non-numeric cell"),
    ("ragged-row", "1.0,2.0\n\n3.0,4.0\n\n5.0\n", 5, "expected 2 columns, got 1"),
    ("trailing-comma", "1.0,2.0\n\n3.0,4.0,\n", 3, "non-numeric cell"),
]


class TestCsv:
    def test_round_trip_exact(self):
        m = RngStream(11, purpose="csv").generator().normal(size=(5, 3)) * 1e-7
        text = matrix_to_csv(m)
        assert np.array_equal(matrix_from_csv(text), m)

    def test_format(self):
        assert matrix_to_csv(np.array([[1.5, 2.0]])) == "1.5,2.0\n"

    def test_parse_error_names_line(self, tmp_path):
        for parse, _ in PARSERS:
            with pytest.raises(ParseError) as exc:
                parse("1.0,2.0\n1.0,oops\n", tmp_path)
            assert exc.value.line == 2

    @pytest.mark.parametrize("parse, text, line, message", [
        pytest.param(parse, text, line, message, id=name + suffix)
        for parse, suffix in PARSERS for name, text, line, message in BLANK_LINE_CASES])
    def test_parse_error_counts_blank_lines(self, tmp_path, parse, text, line, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse(text, tmp_path)
        assert exc.value.line == line

    def test_cell_float_reads_but_loadtxt_does_not(self, tmp_path):
        for parse, _ in PARSERS:
            with pytest.raises(ParseError, match="unreadable cell") as exc:
                parse("1.0,2.0\n1_000,2.0\n", tmp_path)
            assert exc.value.line is None

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        for parse, _ in PARSERS:
            for text in ("1.0,2.0\n\n3.5,-1.0\n", "1.0,2.0\n  \n3.5,-1.0\r\n"):
                assert np.array_equal(parse(text, tmp_path), [[1.0, 2.0], [3.5, -1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("parse, text", [
        pytest.param(parse, text, id=text + suffix)
        for parse, suffix in PARSERS for text in ("", "\n\n", " \n")])
    def test_no_rows(self, tmp_path, parse, text):
        with pytest.raises(ParseError, match="no rows found"):
            parse(text, tmp_path)

    def test_parse_is_the_exact_float(self):
        m = RngStream(13, purpose="csv").generator().normal(size=(40, 7)) * 10.0 ** np.arange(-3, 4)
        assert matrix_from_csv(matrix_to_csv(m)).tobytes() == m.tobytes()

    @pytest.mark.parametrize("exponent", [-300, -150, -1, 0, 1, 150, 300])
    def test_file_holds_the_bytes_of_the_text(self, tmp_path, exponent):
        m = RngStream(14, purpose="csv").generator().normal(size=(9, 4)) * 10.0 ** exponent
        m[2, 1], m[5, 3] = -0.0, 0.0
        path = tmp_path / "m.csv"
        save_matrix_csv(m, str(path))
        assert path.read_bytes() == matrix_to_csv(m).encode("ascii")
        assert load_matrix_csv(str(path)).tobytes() == m.tobytes()

    def test_non_finite_matrix_writes_no_file(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ShapeError, match="non-finite"):
            save_matrix_csv(np.array([[1.0, np.inf]]), str(path))
        assert not path.exists()


def write_members(path, index, data):
    """An array file of an ``index`` and a ``data`` member written as given."""
    if not isinstance(index, bytes):
        index = json.dumps(index).encode()
    with open(path, "wb") as fh:
        np.savez(fh, index=np.frombuffer(index, np.uint8), data=data)


@st.composite
def named_tensors(draw):
    """Tensors of drawn names and shapes (0-d and empty ones included), whose
    entries are drawn bit patterns: every finite float64, -0.0 and
    subnormals included."""
    shapes = draw(st.dictionaries(st.text(min_size=1, max_size=6),
                                  st.lists(st.integers(0, 4), max_size=3).map(tuple),
                                  max_size=6))
    gen = RngStream(draw(st.integers(0, 2**32 - 1)), purpose="bits").generator()
    tensors = {}
    for name, shape in shapes.items():
        a = gen.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
        a[~np.isfinite(a)] = -0.0
        tensors[name] = a
    return tensors


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

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(tensors=named_tensors(), rounds=st.integers(-5, 5))
    @example(tensors={"scalar": np.array(-0.0), "empty": np.zeros(0),
                      "v": np.array([5e-324])}, rounds=1)
    def test_round_trip_keeps_every_bit(self, tensors, rounds, tmp_path_factory):
        root = tmp_path_factory.mktemp("arrays")
        paths = [str(root / name) for name in ("a.npz", "b.npz")]
        for path in paths:
            save_arrays(path, tensors, {"round": rounds, "names": list(tensors)})
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()
        meta, arrays = load_arrays(paths[0])
        assert meta == {"round": rounds, "names": list(tensors)}
        assert list(arrays) == list(tensors)
        for name, a in tensors.items():
            assert arrays[name].shape == a.shape
            assert arrays[name].dtype == np.float64
            assert arrays[name].tobytes() == a.tobytes()

    def test_two_members(self, tmp_path):
        import zipfile

        path = str(tmp_path / "two.npz")
        save_arrays(path, {f"t{i}": np.ones((3, 2)) for i in range(40)}, {"round": 1})
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == ["index.npy", "data.npy"]

    def test_object_array_rejected_without_unpickling(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "o.npz"
        write_members(path, {"meta": {}, "entries": [["a", [1]]]},
                      np.array([{"x": 1}], dtype=object))

        def no_unpickling(*args, **kwargs):
            raise AssertionError("load_arrays unpickled an entry")

        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        with pytest.raises(ParseError, match="o.npz"):
            load_arrays(str(path))

    @pytest.mark.parametrize("bad", [np.array([[1.0, np.inf]])], ids=["non_finite"])
    def test_bad_tensor_rejected(self, tmp_path, bad):
        path = str(tmp_path / "b.npz")
        save_arrays(path, {"ok": np.ones(2), "bad": bad, "nan": np.array([np.nan])}, {})
        with pytest.raises(ParseError, match="b.npz: entry 'bad' is not finite"):
            load_arrays(path)

    def test_data_not_float64_refused(self, tmp_path):
        path = tmp_path / "d.npz"
        write_members(path, {"meta": {}, "entries": [["a", [2]]]}, np.array([1, 2]))
        with pytest.raises(ParseError, match=r"d.npz is not an index and its float64 data "
                                             r"\(is not a float64 array"):
            load_arrays(str(path))
        with pytest.raises(TypeError):
            save_arrays(str(path), {"a": np.array([1, 2])}, {})

    @pytest.mark.parametrize("index", [
        {"meta": {}, "entries": [["a", [2]]]},
        {"meta": {}, "entries": [["a", [2, 3]]]},
        {"meta": {}, "entries": [["a", [3]], ["a", [2]]]},
        {"meta": {}, "entries": [["a", "5"]]},
        {"entries": [["a", [5]]]},
        b"{not json",
    ], ids=["short", "long", "repeated-name", "shape-not-a-list", "no-meta", "not-json"])
    def test_index_that_does_not_fit_refused(self, tmp_path, index):
        path = tmp_path / "i.npz"
        write_members(path, index, np.ones(5))
        with pytest.raises(ParseError, match="i.npz is not an index and its float64 data"):
            load_arrays(str(path))

    def test_per_member_layout_refused(self, tmp_path):
        # the layout of earlier versions: a JSON member, then one per tensor
        path = tmp_path / "old.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array("{}"), online0=np.ones((2, 3)))
        with pytest.raises(ParseError, match="old.npz is not a packed array file"):
            load_arrays(str(path))

    @pytest.mark.parametrize("content", [b"hello", b"PK\x03\x04 torn"], ids=["text", "torn_zip"])
    def test_not_an_array_file(self, tmp_path, content):
        path = tmp_path / "x.npz"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="x.npz"):
            load_arrays(str(path))

    def test_torn_member_refused(self, tmp_path):
        path = tmp_path / "t.npz"
        save_arrays(str(path), {"a": np.ones(100)}, {})
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2] + whole[len(whole) // 2 + 8:])
        with pytest.raises(ParseError, match="t.npz"):
            load_arrays(str(path))

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="nothere.npz"):
            load_arrays(str(tmp_path / "nothere.npz"))

    def test_no_np_load_in_the_package(self):
        # decode_npy reads every npy the package reads; np.load parses
        # headers with ast.literal_eval, which is not safe in threads
        package = Path(__file__).resolve().parents[1] / "src" / "hssfl"
        calls = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if (isinstance(node, ast.Attribute) and node.attr == "load"
                     and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
                 or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                     and any(alias.name == "load" for alias in node.names))]
        assert calls == []


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


class TestOneBlasThread:
    """The loaded OpenBLAS runs on one thread inside the block, and on as
    many as before it after, whether the block returns or raises."""

    @pytest.fixture()
    def blas_threads(self):
        blas = numkit._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        return blas[0]

    def test_given_back_after_a_return(self, blas_threads):
        before = blas_threads()
        with one_blas_thread() as held:
            assert held and blas_threads() == 1
        assert blas_threads() == before

    def test_given_back_after_a_raise(self, blas_threads):
        before = blas_threads()
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert blas_threads() == 1
                raise KeyError("inside")
        assert blas_threads() == before

    def test_without_openblas_nothing_is_held(self, monkeypatch):
        monkeypatch.setattr(numkit, "_openblas", lambda: None)
        with one_blas_thread() as held:
            assert held is False


def _plain(state):
    """A bit generator state with its arrays as lists, comparable by ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state

