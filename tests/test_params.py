import numpy as np
import pytest

from muspec.params import Params


@pytest.mark.parametrize("schedule, bad", [
    ((0.5, 2), "0.5"),
    ((2.0, 4), "2.0"),
    ((True, 2), "True"),
    ((-3, 2), "-3"),
    ((0,), "0"),
    (("5",), "'5'"),
])
def test_schedule_windows_must_be_positive_integers(schedule, bad):
    with pytest.raises(ValueError) as info:
        Params(schedule=schedule)
    assert str(info.value) == f"schedule windows must be positive integers, got {bad}"


def test_schedule_takes_integer_windows():
    assert Params(schedule=[np.int64(5), 10]).schedule == (5, 10)
    with pytest.raises(ValueError, match="strictly increasing"):
        Params(schedule=(10, 5))


@pytest.mark.parametrize("field, values, message", [
    ("tol_stab", (-1.0, 0.0, float("nan")), "tol_stab must be positive"),
    ("cutoff_fraction", (0.0, 1.0, -0.5, 2.0, float("nan")), "cutoff_fraction must be in (0, 1)"),
])
def test_each_bad_field_is_named_alone(field, values, message):
    for value in values:
        with pytest.raises(ValueError) as info:
            Params(**{field: value})
        assert str(info.value) == message
