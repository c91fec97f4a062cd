#!/usr/bin/env python
"""Regenerate the golden fixtures under ``tests/golden/fixtures/``.

Run after an *intentional* change to kernel numerics, the cost model, or
what the observability layer records::

    PYTHONPATH=src python tests/golden/regen.py

and commit the refreshed fixture together with the change that motivated
it. The test suite (``tests/golden/test_golden.py``) fails with a
field-level diff whenever current behaviour drifts from this file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.golden.cases import (  # noqa: E402
    CASES,
    FIXTURE_PATH,
    MUTABLE_CASES,
    MUTABLE_FIXTURE_PATH,
    OBS_CASES,
    OBS_FIXTURE_PATH,
    run_case,
    run_mutable_case,
    run_obs_case,
)


def regenerate() -> dict:
    doc = {"_comment": ("golden regression fixtures; regenerate with "
                        "`PYTHONPATH=src python tests/golden/regen.py`"),
           "cases": {}}
    for name, engine_kwargs, metric, params, positive in CASES:
        print(f"  {name} ...", flush=True)
        doc["cases"][name] = run_case(name, engine_kwargs, metric, params,
                                      positive)
    return doc


def regenerate_mutable() -> dict:
    doc = {"_comment": ("delta-merge golden fixtures (MutableIndex); "
                        "regenerate with `PYTHONPATH=src python "
                        "tests/golden/regen.py`"),
           "cases": {}}
    for name, engine, metric, params in MUTABLE_CASES:
        print(f"  {name} ...", flush=True)
        doc["cases"][name] = run_mutable_case(name, engine, metric, params)
    return doc


def regenerate_obs() -> dict:
    doc = {"_comment": ("observability golden fixtures (metrics, events, "
                        "sampling, exemplars, spans); regenerate with "
                        "`PYTHONPATH=src python tests/golden/regen.py`"),
           "cases": {}}
    for name in OBS_CASES:
        print(f"  {name} ...", flush=True)
        doc["cases"][name] = run_obs_case(name)
    return doc


def main() -> None:
    doc = regenerate()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cases'])} cases to {FIXTURE_PATH}")
    mutable_doc = regenerate_mutable()
    MUTABLE_FIXTURE_PATH.write_text(
        json.dumps(mutable_doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(mutable_doc['cases'])} cases to "
          f"{MUTABLE_FIXTURE_PATH}")
    obs_doc = regenerate_obs()
    OBS_FIXTURE_PATH.write_text(
        json.dumps(obs_doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(obs_doc['cases'])} cases to {OBS_FIXTURE_PATH}")


if __name__ == "__main__":
    main()
