"""Meta-test: the shipped tree stays lint-clean.

This is the tier-1 regression guard behind `python -m repro.lint src`:
a PR that reintroduces an unseeded RNG, a wall-clock read, a fork-unsafe
mutation, or an undocumented suppression fails here, not in review.
"""

from pathlib import Path

import pytest

from repro.lint import lint_paths, render_human

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def report():
    """One cold lint of all of ``src/``, shared by the checks below."""
    return lint_paths([SRC], enforce_allowlist=True)


def test_src_has_no_findings(report):
    assert report.files > 50  # the whole package was scanned, not a subset
    assert report.findings == [], "\n" + render_human(report)
    assert report.exit_code(strict=True) == 0


def test_src_suppressions_match_allowlist_inventory(report):
    # Exactly the documented suppressions fire -- no drift in either
    # direction between noqa comments and the allowlist (DET002 in
    # core/ownership.py, DET010 in measurement/fastseed.py).
    assert report.suppressed == 2
