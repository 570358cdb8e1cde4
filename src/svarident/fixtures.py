"""The built-in restriction document that demo walks through (the test
suite reads it too)."""

from __future__ import annotations

# Three-variable, one-lag scheme whose counting condition passes although the
# impact restriction is implied by the two A0 zeros: the textbook case where
# counting restrictions is not enough.
COUNTEREXAMPLE = """\
# n = 3, p = 1: two contemporaneous zeros plus one impact-response zero.
# Counts pass (2, 1, 0) but the IR0 cell carries no independent information.
n = 3
p = 1

block A0
x x x
0 x x
0 x x

block IR0
x 0 x
x x x
x x x
"""
