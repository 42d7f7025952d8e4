"""Host-speed sampler: ``python sampler.py OUT``.

Started pinned to one vCPU, it appends ``[wall time, CPU seconds]`` of
one ``common.reference_work`` to ``OUT`` (JSON lines) every
``common.SAMPLE_EVERY_S`` until SIGTERM.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time

from common import SAMPLE_EVERY_S, reference_work


def main(argv) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    # A sample must time the interpreter, not a collection of whatever
    # this process has allocated.
    gc.disable()
    with open(argv[0], "w", encoding="utf-8") as out:
        while True:
            began = time.thread_time()
            reference_work()
            out.write(json.dumps([time.time(), time.thread_time() - began]) + "\n")
            out.flush()
            time.sleep(SAMPLE_EVERY_S)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
