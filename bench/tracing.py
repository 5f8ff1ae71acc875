"""Spans around the public functions of each linecells layer.

The benchmark wraps these functions from its own files; nothing in src/
changes. Every module binding of a wrapped function is replaced, so calls
that arrive through `from .x import f` are seen too. Spans are kept in
memory as [name, start, end, parent index, attrs] and handed back with the
operation's report.
"""

from __future__ import annotations

import functools
import sys
import time


def _coord_bits(family):
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for line in family
        for v in (line.m, line.c)
    )


# (module, function, span name, attrs taken from (args, result))
TARGETS = (
    ("familyfile", "parse_family", "familyfile.parse", lambda a, r: {"bits": _coord_bits(r)}),
    ("familyfile", "serialize_family", "familyfile.serialize", lambda a, r: {"bits": _coord_bits(a[0])}),
    ("constructions", "contract", "constructions.contract", None),
    ("chains", "longest_cup", "chains.chain_dp", lambda a, r: {"n": len(a[0])}),
    ("chains", "longest_cap", "chains.chain_dp", lambda a, r: {"n": len(a[0])}),
    ("chains", "find_unbounded_cell", "chains.staircase", lambda a, r: {"n": len(a[0])}),
    ("arrangement", "max_concurrency", "arrangement.vertex_table", lambda a, r: {"n": len(a[0])}),
    ("arrangement", "enumerate_cells", "arrangement.enumerate_cells", lambda a, r: {"n": len(a[0]), "cells": len(r)}),
    ("arrangement", "is_convex_position", "arrangement.convex_test", lambda a, r: {"convex": bool(r)}),
    ("verify", "find_n_convex", "verify.search", None),
    ("verify", "largest_convex_subset", "verify.search", None),
    ("svg", "render_svg", "svg.render", None),
)

# calls from constructions into these count as re-checks of its own output
RECHECKS = ("max_concurrency", "longest_cup", "longest_cap", "has_k_cell_unbounded")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def record(self, name, start, end, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs or {}])

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, {}])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if attrs is not None:
                spans[index][4] = attrs(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("linecells")]
        for module_name, func_name, span, attrs in TARGETS:
            original = getattr(sys.modules[f"linecells.{module_name}"], func_name)
            wrapped = self.wrap(span, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        constructions = sys.modules["linecells.constructions"]
        for func_name in RECHECKS:
            inner = getattr(constructions, func_name)
            setattr(constructions, func_name, self.wrap("constructions.recheck", inner))
