"""Self-tests of the benchmark (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for entry in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
