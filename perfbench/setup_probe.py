"""One fresh-process set-up, timed from outside by ``run.py``: import drrcalc
from this checkout, then parse a case and apply its renewables.

    python3 perfbench/setup_probe.py CASE_STEM
"""

import sys

from workloads import import_drrcalc, load_case

if __name__ == "__main__":
    load_case(import_drrcalc(), sys.argv[1])
