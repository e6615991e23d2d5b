import levy_groups


def test_every_export_resolves_once():
    names = levy_groups.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(levy_groups, n)] == []
