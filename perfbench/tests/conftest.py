"""Make ``repro`` importable when the benchmark's tests run on their own."""

import sys
from pathlib import Path

SOURCE = str(Path(__file__).resolve().parents[2] / "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
