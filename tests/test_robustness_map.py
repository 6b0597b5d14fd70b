"""Four rows of the robustness map (`tests/robustness_map.py`) still read
as recorded.

The goldens never reach the optimizer's central differences or its
no-buildable-candidate branch; these rows do. Two fits take central-
difference steps on the way (Weibull(1, 0.5), Lognormal(0, 1.2)), and two
never build a candidate and fail with their stage (Lognormal(1, 0.5) after
patience runs out, Weibull(1, 0.7) at max_iters). Each row pins its
outcome, message, Adam and central-difference steps, and the points the
optimizer returned, in target time, to 1e-9 relative.
"""

import pytest

from robustness_map import label, map_row

ROWS = {
    ("weibull", (1.0, 0.5)): (
        "fit", "", 84, 7,
        [25.58505944238621, 29.258641202782602, 38.465214216839954,
         51.75245826875509, 94.37589562166029, 162.7622201726014,
         299.39755146788735, 572.7784835181792]),
    ("lognormal", (0.0, 1.2)): (
        "fit", "", 150, 41,
        [23.7926647511155, 21.625201894062847, 38.256514659707804,
         63.10887794601169, 108.9272402647278, 202.5385874560644,
         462.7914031273584, 1133.6800174037967]),
    ("lognormal", (1.0, 0.5)): (
        "InvalidModelError", "weight 3.125e+00 outside (0,1] at stage 3",
        78, 78,
        [9.561223813536394, 9.450316435992127, 9.674140195052209,
         11.087651746482345, 19.511625866590354, 28.646493770150666,
         45.93462029146029, 81.02339601161692]),
    ("weibull", (1.0, 0.7)): (
        "InvalidModelError", "nonpositive residual at stage 4", 500, 500,
        [3.911778649834119, 3.879869886965008, 4.028299257948553,
         6.922730715297132, 19.4814762730517, 10.89433553616384,
         34.37031942138458, 31.30458544432015]),
}
PARAMS = {"weibull": ("scale", "shape"), "lognormal": ("mu", "sigma")}


def _params(kind, values):
    return dict(zip(PARAMS[kind], values))


@pytest.mark.parametrize("key", ROWS,
                         ids=[label(k, _params(k, v)) for k, v in ROWS])
def test_map_row_reads_as_recorded(key):
    kind, values = key
    outcome, message, adam_steps, cd_steps, points = ROWS[key]
    row = map_row(kind, _params(kind, values))
    assert (row["outcome"], row["message"]) == (outcome, message)
    assert (row["adam_steps"], row["cd_steps"]) == (adam_steps, cd_steps)
    assert row["points"] == pytest.approx(points, rel=1e-9, abs=0.0)
    assert (row["mae"] is None) == (outcome != "fit")
