"""The package's public export list."""
import dpgraphseq


def test_all_names_resolve_once_in_sorted_order():
    names = dpgraphseq.__all__
    assert [name for name in names if not hasattr(dpgraphseq, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
