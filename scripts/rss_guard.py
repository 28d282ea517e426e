#!/usr/bin/env python3
"""Run one isoclinic command under -W error and fail when its peak RSS passes a limit.

The command runs as a child process; its ru_maxrss is read when it ends.
Prints one line with the command, its exit code and its ru_maxrss, and exits
with the child's code, or 1 when the child exited 0 but its ru_maxrss passed
the limit.

    python3 scripts/rss_guard.py LIMIT_MB COMMAND [ARGS...]
    python3 scripts/rss_guard.py 2200 pipeline --k 2457
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: rss_guard.py LIMIT_MB COMMAND [ARGS...]", file=sys.stderr)
        return 2
    limit, args = float(sys.argv[1]), sys.argv[2:]
    code = subprocess.call([sys.executable, "-W", "error", "-m", "isoclinic", *args])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{args[0]}: exit {code}, ru_maxrss {peak:.0f} MB (limit {limit:.0f} MB)")
    return code or int(peak > limit)


if __name__ == "__main__":
    sys.exit(main())
