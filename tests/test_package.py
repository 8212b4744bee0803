"""The package's public namespace."""

import motifdiff


def test_public_names_resolve_once():
    names = motifdiff.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(motifdiff, name)]
    assert missing == []
