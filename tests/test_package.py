import symrank


def test_every_exported_name_resolves():
    missing = [name for name in symrank.__all__ if not hasattr(symrank, name)]
    assert missing == []
    assert len(set(symrank.__all__)) == len(symrank.__all__)
