"""Time the program's set-up in a fresh process.

Usage: python3 setup_probe.py SRC_DIR CONFIG [CONFIG ...]

Times ``import torusgeo``, then ``load_config`` on each config and
``build_problem`` on each that has a [problem] section, and prints the
elapsed seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import torusgeo  # noqa: E402

for path in sys.argv[2:]:
    cfg = torusgeo.load_config(path)
    if cfg.problem is not None:
        torusgeo.build_problem(cfg)
print(repr(time.perf_counter() - start))
