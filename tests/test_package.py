from types import ModuleType

import gridscope


def test_all_lists_the_public_api_but_no_submodules():
    names = gridscope.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if isinstance(getattr(gridscope, n), ModuleType)]
    for name in ("build_track", "CsvError", "load_calibration", "read_segments"):
        assert name in names
    public = {n for n in dir(gridscope) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(gridscope, n), ModuleType)}
    assert set(names) == public - modules
