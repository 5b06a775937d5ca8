"""Golden pin: the five grid-mogb cells reproduce their committed skylines
bit for bit, with the same oracle and surrogate call counts.

The pin is ``tests/golden/grid_mogb.json``, written by
``tests/golden/make_grid_mogb.py``; see that script for the knobs.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.make_grid_mogb import CELLS, GOLDEN, run_cell

EXPECTED = json.loads(GOLDEN.read_text())["cells"]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CELLS))
def test_grid_cell_matches_golden_pin(name):
    assert run_cell(name) == EXPECTED[name]
