"""One benchmark operation, run in a fresh interpreter.

    python3 bench/op.py '<json spec>'

The spec names one of:
  {"argv": [...]}     linecells.cli.main(argv), the CLI as a user runs it;
  {"cells": path}     parse_family on the file, then enumerate_cells;
  {"setup": [paths]}  import linecells and parse each file (the set-up cost).
With "trace": true the public functions of each layer are wrapped first
(see tracing.py). The clock runs inside this interpreter, around the call
into linecells only, so interpreter start-up and the JSON report below are
not timed. A fixed slice of work is timed around and during the call
(Speed), so the caller can scale the time to a reference machine speed.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spin():
    """About a millisecond of fixed pure-Python rational and dict work, the
    same kind of work linecells does."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc = acc * Fraction(3, 4) + Fraction(i * 7919, i + 13)
        seen[i % 97, acc.denominator % 101] = i


class Speed:
    """How long _spin takes around and during the operation: a burst of 40
    spins just before and just after, and one spin every 0.25 s in between,
    driven by a timer signal. Time spent spinning inside the operation is
    kept in `spent` so the caller can take it out of the operation's time."""

    def __init__(self):
        self.bursts = []
        self.ticks = []
        self.spent = 0.0

    @staticmethod
    def _spin_seconds():
        """One spin with the cyclic GC paused, so a collection over the
        program's heap is not timed as part of the slice."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _spin()
        seconds = time.perf_counter() - start
        if enabled:
            gc.enable()
        return seconds

    def burst(self):
        self.bursts.append(statistics.median(self._spin_seconds() for _ in range(40)))

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(self._spin_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_s(self):
        """Median spin time over the readings: each burst counts as one."""
        return statistics.median(self.bursts + self.ticks)


def _cells_payload(cells):
    return [
        {
            "signs": "".join("+" if s > 0 else "-" for s in cell.signs),
            "bounding": sorted(cell.bounding),
            "class": cell.bound_class,
            "witness": [str(cell.witness_point.x), str(cell.witness_point.y)],
        }
        for cell in cells
    ]


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
    speed = Speed()
    speed.burst()
    started = time.perf_counter()
    import linecells.cli

    imported = time.perf_counter()
    if "setup" in spec:
        for path in spec["setup"]:
            linecells.parse_family(Path(path).read_text())
        seconds = time.perf_counter() - started
        speed.burst()
        print(json.dumps({"seconds": seconds, "reference_s": speed.reference_s()}))
        return 0
    if tracer is not None:
        tracer.record("cli.import", started, imported)
        tracer.install()
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), speed:
        t0 = time.perf_counter()
        if "argv" in spec:
            rc = linecells.cli.main(spec["argv"])
        else:
            family = linecells.parse_family(Path(spec["cells"]).read_text())
            cells = linecells.enumerate_cells(family)
            rc = 0
        t1 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.burst()
    report = {
        "rc": rc,
        "seconds": t1 - t0 - speed.spent,
        "reference_s": speed.reference_s(),
        "rss_mb": rss_mb,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if "cells" in spec:
        report["cells"] = _cells_payload(cells)
    if tracer is not None:
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
