"""Set-up probe: a fresh interpreter gets ready for a timed pass, then says so.

    python3 perfbench/setup_probe.py <workload> <config dir>

It imports kmslab from ./src, parses the workload's configs, builds the
InequalityConfigs and their correction descriptors, and prints "ready".
run.py times this from spawn to the "ready" line (setup_s).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], Path(sys.argv[2]))
print("ready", flush=True)
