"""The public names of the package, the README list of them, and the numpy-only rule."""

import os
import re
import subprocess
import sys

import polymra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_entry_points():
    """Backticked names before the colon of each bullet under README "Library entry points"."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n- ", section)[1:]
    return [name for b in bullets
            for name in re.findall(r"`([A-Za-z_]\w*)`", b.split(":", 1)[0])]


def test_every_exported_name_resolves():
    for name in polymra.__all__:
        assert hasattr(polymra, name), name


def test_readme_entry_points_are_exported():
    names = _readme_entry_points()
    assert len(names) >= 20
    assert sorted(set(names) - set(polymra.__all__)) == []


def test_import_loads_no_third_party_module_but_numpy():
    code = ("import sys; before = set(sys.modules); import polymra; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polymra.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "polymra" in out
    assert sorted(set(out) - set(sys.stdlib_module_names) - {"polymra"}) == ["numpy"]
