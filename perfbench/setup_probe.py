"""Set-up cost in a fresh interpreter: import linwenger and scipy.sparse, then
build the given fields with GF().  Prints {"setup_s": ..., "gf_build_s": ...,
"kernel_s": ...}, where kernel_s is the median time of the host-speed kernel
run just before and just after the timed imports.

    python3 perfbench/setup_probe.py '[[2, 3, null], [3, 2, [2, 2, 1]]]'
"""

import time

import hostspeed

KERNEL_SAMPLES = 20
BEFORE = [hostspeed.time_kernel() for _ in range(KERNEL_SAMPLES)]

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    fields = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import scipy.sparse  # noqa: F401
    from linwenger.fields import GF

    t1 = time.perf_counter()
    for p, e, modulus in fields:
        GF(p, e, modulus)
    t2 = time.perf_counter()
    after = [hostspeed.time_kernel() for _ in range(KERNEL_SAMPLES)]
    print(json.dumps({
        "setup_s": t2 - T0,
        "gf_build_s": t2 - t1,
        "kernel_s": hostspeed.median(BEFORE + after),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
