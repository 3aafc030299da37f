"""`tests/ab.py`'s two-tree import and paired summary, on a toy package."""
import sys

import pytest

import ab

TOY = {
    "__init__.py": "from .core import VALUE, bump\nfrom . import extra\n",
    "core.py": "VALUE = [0]\n\n\ndef bump():\n    VALUE[0] += 1\n    return VALUE[0]\n",
    "extra.py": "from .core import VALUE\n",
    "late.py": "from .core import bump\n",
}


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy"
    path.mkdir()
    for name, text in TOY.items():
        (path / name).write_text(text)
    loaded = []
    yield path, loaded
    for name in [key for key in sys.modules if key.split(".")[0] in loaded]:
        del sys.modules[name]


def test_a_package_loads_twice_under_two_names(toy):
    path, loaded = toy
    loaded += ["toy_a", "toy_b"]
    a, b = ab.load_package(path, "toy_a"), ab.load_package(path, "toy_b")
    # every module, also one the package itself does not import, per copy
    for name in ("core", "extra", "late"):
        assert sys.modules[f"toy_a.{name}"] is getattr(a, name)
        assert sys.modules[f"toy_b.{name}"] is getattr(b, name)
        assert getattr(a, name) is not getattr(b, name)
    # relative imports bind within a copy: its state is its own
    assert a.extra.VALUE is a.core.VALUE and a.late.bump is a.bump
    assert a.bump() == 1 and a.bump() == 2 and b.bump() == 1
    assert "toy" not in sys.modules


def test_a_loaded_copy_binds_under_the_package_name_only_inside_the_block(toy):
    path, loaded = toy
    loaded.append("toy_a")
    a = ab.load_package(path, "toy_a")
    with ab.bound_as(a, "toy"):
        from toy import core
        from toy.late import bump
        assert core is a.core and bump is a.bump
    assert not [key for key in sys.modules if key.split(".")[0] == "toy"]


def test_paired_summary_of_round_ratios():
    base = [1.0, 2.0, 1.0, 4.0, 1.0]
    other = [0.9, 2.2, 0.8, 4.0, 0.95]  # ratios 0.9, 1.1, 0.8, 1.0, 0.95
    s = ab.paired(base, other)
    assert s["median"] == pytest.approx(0.95) and s["wins"] == 3 and s["rounds"] == 5
    assert 0.8 <= s["low"] <= s["median"] <= s["high"] <= 1.1
    assert ab.paired(base, other) == s  # the bootstrap has a fixed seed
