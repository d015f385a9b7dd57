"""Keep one CPU from going idle: ``python keepawake.py <cpu>``.

On the shared guest this benchmark runs on, a vCPU with nothing to run
is halted, and waking it costs 1-4 ms, three times more in one minute
than in the next.  A request to a server crosses between the generator's
CPU and the servers' CPU four times or more, so those wake-ups — not
anything the program does — decided the latency: a warm monolith read
measured 4.8 ms without this process and 0.85 ms with it, the same read
through the federation 8.9 ms and 2.95 ms (README.md, "Keep-awake").

The loop runs in the ``SCHED_IDLE`` class: it gets only cycles nobody
else wants and is preempted the instant anything else on its CPU wakes.
It ends when its parent closes its standard input, or on SIGTERM.
"""

from __future__ import annotations

import os
import sys
import threading


def main() -> int:
    cpu = int(sys.argv[1])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)  # no SCHED_IDLE here: the lowest ordinary priority
    # A parent that dies without stopping us closes the pipe: exit then.
    threading.Thread(target=lambda: (sys.stdin.read(), os._exit(0)),
                     daemon=True).start()
    counter = 0
    while True:
        counter += 1


if __name__ == "__main__":
    raise SystemExit(main())
