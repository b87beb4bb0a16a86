import types

import warppoly


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(warppoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(warppoly.__all__) == sorted(bound)
