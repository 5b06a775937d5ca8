"""Generate the golden pin for the five grid-mogb paper-grid cells.

Runs ``t1-bimodis``, ``t2-nsga2``, ``t3-apx``, ``t4-bimodis`` and
``t5-divmodis`` on the library path (``ResolvedScenario.run``) with the
MO-GBM estimator at scale 0.15, N 12, 8 bootstrap valuations and one fixed
seed, and records per cell:

* the skyline: each entry's state bitmap and its performance vector as
  exact float hex;
* the oracle valuations the estimator paid, the surrogate estimates it
  answered, the verification oracle calls and the surrogate refits.

``tests/integration/test_golden_grid_mogb.py`` re-runs the cells and
compares exactly, so any change to model fitting, search or verification
that moves a single bit of a skyline shows up. Regenerate only when a
change is meant to move the pin, and justify every diff::

    PYTHONPATH=src python tests/golden/make_grid_mogb.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any
from unittest import mock

GOLDEN = Path(__file__).with_name("grid_mogb.json")

SEED = 20250301
KNOBS: dict[str, Any] = {
    "estimator": "mogb", "epsilon": 0.15, "max_level": 5,
    "scale": 0.15, "budget": 12, "n_bootstrap": 8,
}
CELLS: dict[str, tuple[str, str, dict[str, Any]]] = {
    "t1-bimodis": ("T1", "bimodis", {}),
    "t2-nsga2": ("T2", "nsga2", {"population": 16, "generations": 8}),
    "t3-apx": ("T3", "apx", {}),
    "t4-bimodis": ("T4", "bimodis", {}),
    "t5-divmodis": ("T5", "divmodis", {"k": 5}),
}


def run_cell(name: str) -> dict[str, Any]:
    """One cell's skyline signature and call counts, on a fresh task."""
    from repro.ml.boosting import MultiOutputGradientBoosting
    from repro.report import build_payload
    from repro.scenarios.factory import ScenarioFactory, TaskCache
    from repro.scenarios.spec import Scenario

    task, algorithm, kwargs = CELLS[name]
    spec = Scenario(name=name, task=task, algorithm=algorithm,
                    algorithm_kwargs=kwargs, seed=SEED, verify=True, **KNOBS)
    runnable = ScenarioFactory(TaskCache()).resolve(spec).build()
    fit = MultiOutputGradientBoosting.fit
    with mock.patch.object(MultiOutputGradientBoosting, "fit",
                           autospec=True, side_effect=fit) as fits:
        result = runnable.run(verify=True)
    payload = build_payload(result)
    estimator = runnable.config.estimator
    return {
        "skyline": [
            [entry["bits"],
             [float(entry["performance"][m]).hex() for m in payload["measures"]]]
            for entry in payload["entries"]
        ],
        "oracle_calls": estimator.oracle_calls,
        "surrogate_calls": estimator.surrogate_calls,
        "verification_calls": result.report.extras["verification_calls"],
        "surrogate_fits": fits.call_count,
    }


def main() -> int:
    cells = {name: run_cell(name) for name in CELLS}
    document = {"seed": SEED, "knobs": KNOBS, "cells": cells}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(cells)} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
