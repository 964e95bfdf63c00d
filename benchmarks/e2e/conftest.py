"""Makes the benchmark's modules (plain files beside ``run.py``) and the
program importable for the benchmark's own tests:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(HERE, "..", "..", "src"), HERE):
    sys.path.insert(0, os.path.normpath(path))
