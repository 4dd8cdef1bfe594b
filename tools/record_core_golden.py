#!/usr/bin/env python
"""Record tests/data/core_golden.json, the cycle core's golden oracle.

Runs every case of ``tests/test_core_golden.py`` on the cycle core and
stores its full Stats and architectural-state digest (or the exact
error).  The file is recorded once, from a trusted version of the core,
and then frozen: a later mismatch is a bug to fix, not a reason to
re-record.  Always refuses to overwrite an existing file: a deliberate
re-record means deleting the file by hand first, where the diff shows it.

    PYTHONPATH=src python tools/record_core_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from test_core_golden import (  # noqa: E402
    GOLDEN_PATH,
    build_cases,
    observe_case,
)


def main() -> int:
    if GOLDEN_PATH.exists():
        print(f"{GOLDEN_PATH} exists; refusing to re-record",
              file=sys.stderr)
        return 1
    cases = build_cases()
    for case in cases:
        case["expected"] = observe_case(case)
    GOLDEN_PATH.write_text(json.dumps({"schema": 1, "cases": cases},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
