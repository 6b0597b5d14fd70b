"""The twelve default fits still reproduce their golden outputs.

The goldens are in tests/data/golden_fits.json, written by
`tests/golden_fits.py --write`; the comparison is at 1e-9 relative, with
an absolute floor for values near 0 (see golden_fits.REL_TOL, ABS_TOL).
"""

import json

from golden_fits import GOLDEN_FILE, differences, golden_fits


def test_default_fits_match_their_goldens():
    want = json.loads(GOLDEN_FILE.read_text())
    got = golden_fits()
    assert sorted(got) == sorted(want)
    assert differences(got, want) == []
