"""One refusal per kind of argument: a public door given a value of the
wrong type raises the ``ValueError`` it gives a value of the right type out
of range, with the same message, never a ``TypeError`` from a comparison.

Each row of the table is a door, the argument slot it fills and the
message it must raise.  A door that refuses NaN by range and a wrong type
by type (a rotator component, an image's samples) names both messages.
The transforms' own array slots are covered by
``tests/test_dct8.py::TestFlowGraph::test_non_numeric_samples_refused``.
"""

import math
import re

import numpy as np
import pytest

from cordic_dct.codec import GrayImage, sweep
from cordic_dct.dct8 import DctEngine
from cordic_dct.fixedpoint import ArithmeticMode
from cordic_dct.planner import decompose, generate_table
from cordic_dct.rotator import Vector2, apply_plan, csd_scale, micro_rotate

# Not a real number, or NaN: each is refused at every scalar slot.
BAD_SCALARS = ["0.3", None, 0.3 + 0j, math.nan, np.datetime64("2020-01-01")]
# Not an array of real numbers, or NaN: the bad kinds as 8x8 sample arrays.
BAD_ARRAYS = [
    np.full((8, 8), "200"),
    np.full((8, 8), "200", dtype=object),
    np.full((8, 8), 200, dtype=object),
    np.full((8, 8), 200 + 0j),
    np.full((8, 8), math.nan),
    np.full((8, 8), np.datetime64("2020-01-01")),
]

PLAN = decompose(0.3, 1e-3)
STEP = PLAN.steps[0]
FIXED = ArithmeticMode.fixed(16, 12)
IMAGE = GrayImage.from_array(np.full((8, 8), 128, dtype=np.uint8))

ANGLE = r"angle .* outside \[-pi/2, pi/2\]"
EPSILON = r"epsilon .* outside \[1e-09, 0\.1\]"
COMPONENT = r"expected real values, got .*|vector component in \(nan, 0\.0\) is non-finite .*"

# (door and argument slot, call with the value in that slot, values, message)
DOORS = [
    ("decompose-theta", lambda v: decompose(v, 1e-3), BAD_SCALARS, ANGLE),
    ("decompose-epsilon", lambda v: decompose(0.3, v), BAD_SCALARS, EPSILON),
    ("generate_table-angles", lambda v: generate_table([0.1, v], [1e-3]), BAD_SCALARS, ANGLE),
    ("generate_table-epsilons", lambda v: generate_table([0.1], [1e-3, v]), BAD_SCALARS, EPSILON),
    ("DctEngine-epsilon", DctEngine, BAD_SCALARS, EPSILON),
    ("sweep-epsilons", lambda v: sweep(IMAGE, [1e-3, v], [90]), BAD_SCALARS, EPSILON),
    ("apply_plan-float", lambda v: apply_plan(Vector2(v, 0.0), PLAN), BAD_SCALARS, COMPONENT),
    ("apply_plan-16.12", lambda v: apply_plan(Vector2(v, 0.0), PLAN, FIXED, compensate=True),
     BAD_SCALARS, COMPONENT),
    ("micro_rotate-float", lambda v: micro_rotate(Vector2(v, 0.0), STEP), BAD_SCALARS, COMPONENT),
    ("micro_rotate-16.12", lambda v: micro_rotate(Vector2(v, 0.0), STEP, FIXED),
     BAD_SCALARS, COMPONENT),
    ("csd_scale-value", csd_scale, BAD_SCALARS, r"value .* outside \(0, 2\)"),
    ("csd_scale-tolerance", lambda v: csd_scale(0.5, tolerance=v), BAD_SCALARS,
     r"tolerance .* is not a number >= 0"),
    # An integer slot: a float is the wrong type too.
    ("csd_scale-max_terms", lambda v: csd_scale(0.5, max_terms=v), [*BAD_SCALARS, 2.5],
     r"max_terms .* outside \[1, 16\]"),
    ("GrayImage.from_array-arr", GrayImage.from_array, BAD_ARRAYS,
     r"expected real samples, got dtype .*|sample values non-finite or outside \[0, 255\]"),
]


@pytest.mark.parametrize("call, values, message", [row[1:] for row in DOORS],
                         ids=[row[0] for row in DOORS])
def test_wrong_type_gets_the_doors_value_error(call, values, message):
    for value in values:
        with pytest.raises(ValueError) as info:
            call(value)
        assert re.fullmatch(message, str(info.value)), (value, str(info.value))
