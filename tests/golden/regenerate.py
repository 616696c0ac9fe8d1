"""Rewrite ``digests.json`` from the CLI cases in ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerating changes what the golden test accepts as the CLI's output
bytes; a change that does it says so, and why, in ``CHANGES.md``.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import DIGESTS, run_cases  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_cases(Path(tmp))
    body = {"numpy": np.__version__, "cases": cases}
    DIGESTS.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)


if __name__ == "__main__":
    main()
