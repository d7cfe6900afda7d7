"""The public API is the export list: every name in cmkit.__all__
resolves on the package, and the names taken out of it stay out."""

import cmkit

REMOVED = (
    "characteristic_residues",
    "enumerate_changemakers",
    "leading_minors",
    "LinearLatticeParams",
    "min_level_by_scan",
    "summarize",
    "torsion_difference",
)


def test_export_list_resolves_and_removed_names_stay_out():
    assert len(set(cmkit.__all__)) == len(cmkit.__all__)
    for name in cmkit.__all__:
        assert hasattr(cmkit, name), name
    for name in REMOVED:
        assert name not in cmkit.__all__, name
        assert not hasattr(cmkit, name), name
