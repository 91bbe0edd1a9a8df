"""Host probe: time a pure-Python loop and a first touch of fresh memory.

Prints one JSON object. Host speed drifts on shared machines; this is the
record of it that sits beside each run's metrics.
"""

import json
import time

import numpy as np

LOOP_ITERATIONS = 2_000_000
TOUCH_BYTES = 256 << 20
PAGE = 4096


def main() -> None:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i & 7
    loop_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    buf = np.empty(TOUCH_BYTES, dtype=np.uint8)
    buf[::PAGE] = 1
    touch_s = time.perf_counter() - t0
    del buf
    print(json.dumps({"py_loop_s": loop_s, "touch_256mib_s": touch_s}))


if __name__ == "__main__":
    main()
