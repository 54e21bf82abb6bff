import inspect

import blocaudit


def test_star_import_gives_every_name_in_all():
    namespace = {}
    exec("from blocaudit import *", namespace)
    assert set(blocaudit.__all__) <= namespace.keys()
    assert len(set(blocaudit.__all__)) == len(blocaudit.__all__)


def test_all_lists_every_public_name_the_package_imports():
    public = {
        name for name, value in vars(blocaudit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(blocaudit.__all__)
