"""Time one cold set-up in this fresh interpreter.

Set-up is `import ddforge, ddforge.cli` plus building the workload's bath
models, whose (d, seed, preset) list arrives as a JSON argument.  Prints the
set-up time in seconds, then the time of the Python reference kernel
(hostspeed.py) in ms, taken after the set-up.
"""

import json
import sys
import time

t0 = time.perf_counter()
import ddforge  # noqa: E402
import ddforge.cli  # noqa: E402,F401

for d, seed, preset in json.loads(sys.argv[1]):
    ddforge.build_model(ddforge.ModelSpec(d=d, seed=seed, preset=preset))
elapsed = time.perf_counter() - t0

import hostspeed  # noqa: E402

print(repr(elapsed), repr(hostspeed.kernel_ms("python")))
