"""The benchmark's modules import each other by plain name, as they do
when ``run.py`` runs; put their directory first on the path."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
