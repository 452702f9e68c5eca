"""The cold first operation, alone in a fresh process (setup_s).

    python3 bench/cold.py CALL.pickle

CALL.pickle holds a workload's first call, a ``functools.partial`` of an
``ops`` function, written by the benchmark's set-up.  Unpickling it imports
``ops`` and so ``povm_purity``; nothing of the benchmark's set-up or oracles
runs here.  The last line printed is time.perf_counter() when the call has
returned: the parent times this process from spawn to that instant, so the
interpreter's teardown stays out.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

with open(sys.argv[1], "rb") as f:
    call = pickle.load(f)
call()
print(time.perf_counter())
