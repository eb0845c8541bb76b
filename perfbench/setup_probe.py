"""Cold start of one CLI call: import mdca.cli and load instances.

Usage: setup_probe.py PATH...

Each PATH is loaded the way the CLI loads it (a file, or catalog:NAME),
which is the part of every `mdca` call that comes before the computation.
Prints the seconds from before the import to after the last load.  The
interpreter's own start-up is left out: it depends on the installation
(site hooks), not on this repository, and it is noisy.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import mdca.cli  # noqa: E402

for path in sys.argv[1:]:
    mdca.cli.load(path, "auto")
print(repr(time.perf_counter() - t0))
