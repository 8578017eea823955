import copy
import pickle

import pytest

from hssfl.errors import NumericalFailureError, ParseError

CLONES = {"pickle": lambda e: pickle.loads(pickle.dumps(e)), "copy": copy.copy}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
class TestErrorsSurviveCloning:
    @pytest.mark.parametrize("err", [
        NumericalFailureError("gram norm", "client 1 round 3"),
        NumericalFailureError("loss"),
        NumericalFailureError("linear gram", "epoch 0 batch 2").within("client 0 round 1"),
    ])
    def test_numerical_failure(self, clone, err):
        out = clone(err)
        assert type(out) is NumericalFailureError
        assert str(out) == str(err)
        assert (out.component, out.detail) == (err.component, err.detail)

    @pytest.mark.parametrize("err", [ParseError("non-numeric cell", line=7),
                                     ParseError("no rows found")])
    def test_parse_error(self, clone, err):
        out = clone(err)
        assert type(out) is ParseError
        assert str(out) == str(err)
        assert (out.message, out.line) == (err.message, err.line)


def test_messages():
    assert str(NumericalFailureError("gram norm", "client 1 round 3")) == (
        "non-finite values in gram norm: client 1 round 3")
    assert str(ParseError("bad", line=3)) == "line 3: bad"
