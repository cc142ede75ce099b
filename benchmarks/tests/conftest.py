import sys
from pathlib import Path

# the benchmark imports the package from the checkout's src/, as run.py does
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
