"""Tier-1 gate: the live tree has zero unsuppressed analyzer findings.

This is the test every change passes through: a lock built outside
``repro.obs.lockhook`` or with an undeclared role, a stray
``time.time()`` in the ranking core, a file write outside the journal
owner, or a blocking call in a coroutine fails the suite with the same
message ``repro-lint`` prints in CI.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis import build_analyzer

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_live_tree_has_zero_unsuppressed_findings():
    report = build_analyzer().run([PACKAGE_ROOT])
    assert report.ok, "repro-lint found unsuppressed violations:\n" + report.render_text()


def test_every_suppression_in_tree_is_used_and_reasoned():
    # A clean report already implies this (unused or reasonless
    # suppressions are findings), so just pin the current allowance
    # budget: growing it is a reviewable event, not an accident.  The
    # budget is zero.
    report = build_analyzer().run([PACKAGE_ROOT])
    assert report.ok
    assert not report.suppressed, (
        "new suppressed findings appeared; each needs review:\n"
        + "\n".join(f.render() for f in report.suppressed)
    )


def test_analyzer_actually_scanned_the_tree():
    report = build_analyzer().run([PACKAGE_ROOT])
    assert report.files >= 60  # the package is ~80 modules; guard against
    # an empty-glob regression silently passing the gate.
