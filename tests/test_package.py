"""Package surface: the top-level exports are exactly the modules' public names."""
import importlib

import mvdlm

MODULES = ("linalg", "distributions", "dlm", "simulate", "errors")


def test_top_level_exports_are_the_union_of_module_exports():
    assert len(set(mvdlm.__all__)) == len(mvdlm.__all__)
    for name in mvdlm.__all__:
        assert hasattr(mvdlm, name), name
    union = set()
    for module_name in MODULES:
        module = importlib.import_module(f"mvdlm.{module_name}")
        for name in module.__all__:
            assert getattr(mvdlm, name) is getattr(module, name), name
        union.update(module.__all__)
    assert set(mvdlm.__all__) == union
