"""Acceptance suite: every criterion must pass at its stated scope.

Runs the shared registry from roachkit.acceptance and prints one line per
criterion (visible with ``pytest -s`` or on failure).
"""

import pytest

from roachkit import acceptance


@pytest.mark.parametrize("name,fn", acceptance.CRITERIA, ids=[n for n, _ in acceptance.CRITERIA])
def test_criterion(name, fn):
    passed, detail = fn()
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_selftest_detects_injected_search_bug(monkeypatch):
    """Sanity check that the cross-check actually bites: silence the
    morphism search and the frame-formula criterion must fail."""
    from roachkit import morphisms

    monkeypatch.setattr(morphisms, "is_permissible", lambda *a, **k: None)
    passed, detail = acceptance.check_fine_jankov()
    assert not passed


def test_unraveling_sample_is_fixed_and_distinct(monkeypatch):
    """The 6- and 7-world frames ``check_unraveling`` unravels are 50
    distinct 2-roach classes, the same on every run."""
    from roachkit import construct, frames as F, roach as R

    seen = []
    unravel = construct.roach_to_willow

    def recording(frame):
        seen.append(frame)
        return unravel(frame)

    monkeypatch.setattr(construct, "roach_to_willow", recording)
    runs = []
    for _ in range(2):
        seen.clear()
        passed, _ = acceptance.check_unraveling()
        assert passed
        runs.append([f for f in seen if f.size > 5])
    sample = runs[0]
    assert len(sample) == 50
    assert {f.size for f in sample} <= {6, 7}
    assert len({F.canonical_key(f) for f in sample}) == 50
    assert all(R.is_2_roach(f) is not None for f in sample)
    assert runs[1] == sample
