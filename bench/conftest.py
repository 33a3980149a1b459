import sys
from pathlib import Path

# The benchmark's tests import rcpotts from this checkout, as its worker does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
