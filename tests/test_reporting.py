"""CSV rendering: a one-type column formats each distinct value once, and its
bytes are those of formatting every value on its own."""

import math

import numpy as np
import pytest

from pinchlab.reporting import _formatter, render_csv


def per_value(columns, rows, precision=17):
    """The reference: every cell printed by the formatter of its own type."""
    lines = [render_csv(columns, [], precision=precision).rstrip("\n")]
    lines += [",".join(_formatter(type(x), precision)(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("column", [
    [0.1, 2.5, 0.1, 1e-300, 2.5, 0.1, 1 / 3],            # repeated floats
    [0.0, -0.0, 1.5, -0.0, 0.0],                         # equal, printed apart
    [math.nan, float("nan"), math.inf, -math.inf, 1.0, math.nan],
    [np.float64(0.25), np.float64(-0.0), np.float64(0.25)],
    [np.float64(0.25), np.float64(1e17), np.float64(0.25)],
    [3, -7, 3, 3, 10**20],                                # ints
    [3, 0, 3],
    [True, False, True, True],                            # bools
    [np.True_, np.False_, np.True_],
    [True, True],
    ["fat", "neck", "fat"],
])
@pytest.mark.parametrize("precision", [17, 6])
def test_matches_the_per_value_formatter(column, precision):
    rows = [(x, x, i) for i, x in enumerate(column)]
    text = render_csv(["a", "b", "i"], rows, precision=precision)
    assert text == per_value(["a", "b", "i"], rows, precision)


def test_signed_zeros_survive():
    text = render_csv(["x"], [(0.0,), (-0.0,)])
    assert text.splitlines()[-2:] == ["0", "-0"]


def test_a_mixed_type_column_is_refused():
    with pytest.raises(ValueError):
        render_csv(["x"], [(1.0,), (2,)])
