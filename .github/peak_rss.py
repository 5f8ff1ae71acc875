"""Run the linecells CLI in this process and guard its peak RSS.

Usage: python .github/peak_rss.py LIMIT_MB ARGV...

Runs linecells.cli.main(ARGV), then prints "peak RSS: X MB" (ru_maxrss,
KiB on Linux). Exits 3 if the peak is above LIMIT_MB, and otherwise with
the command's own exit code.
"""

import resource
import sys

from linecells.cli import main

limit = float(sys.argv[1])
code = main(sys.argv[2:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS: {peak:.1f} MB")
sys.exit(3 if peak > limit else code)
