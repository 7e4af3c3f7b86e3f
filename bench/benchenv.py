"""Process environment shared by every benchmark entry point.

Import this module before numpy: it pins the BLAS pools to one thread, so the
timings measure gil's own code rather than a thread pool, and clears
GIL_THREADS so every chain runs serially as the CLI does by default.  It also
puts the checkout's ``src`` directory first on ``sys.path``, so the benchmark
always measures the gil sources next to it, never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("GIL_THREADS", None)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
