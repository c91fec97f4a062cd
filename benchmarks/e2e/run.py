"""Script form of ``python -m benchmarks.e2e``, runnable by path from the
repository root: ``python3 benchmarks/e2e/run.py --workload knn-topk``."""

import sys
from pathlib import Path

# Import the package from the repository root rather than this directory,
# whose ``trace.py`` would otherwise shadow the standard library module.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
