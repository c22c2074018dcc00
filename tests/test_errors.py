import pickle

from rmkit import errors
from rmkit.errors import FormulaSyntaxError


def test_every_error_survives_a_pickle_round_trip():
    # a worker process hands its exception back pickled
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert FormulaSyntaxError in classes
    for cls in classes:
        err = cls("bad input", 3) if cls is FormulaSyntaxError else cls("bad input")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert getattr(back, "position", None) == getattr(err, "position", None)
    assert str(FormulaSyntaxError("bad input", 3)) == "bad input (at position 3)"
