"""Session set-up shared by every test module.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy or scipy first loads
it. ``concorso.cli`` sets it to 1 before it imports numpy, but a test module
that imports numpy first would leave the in-process tests fitting on the
host's thread count, whose bits may differ from the command's. pytest
imports this file before it collects any test module, so setting it here
gives the in-process tests the command's one thread.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
