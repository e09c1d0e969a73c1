"""The package's lazy exports, and which modules ``import sga`` and each short command load."""

import subprocess
import sys
from pathlib import Path

import pytest

import sga

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sga.__all__)
def test_every_export_is_its_defining_modules_object(name):
    namespace = {}
    exec(f"from sga import {name}", namespace)
    obj = namespace[name]
    module = sys.modules[obj.__module__]
    assert module.__name__.startswith("sga.") and vars(module)[name] is obj
    assert sga.__getattr__(name) is obj  # the lazy lookup, whether or not the name is cached
    assert vars(sga)[name] is obj  # kept in the package namespace once resolved


def test_dir_lists_every_export():
    assert set(sga.__all__) <= set(dir(sga))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sga.no_such_name
    assert not hasattr(sga, "no_such_name")


LOADED = """
import contextlib
import io
import sys

import sga

if len(sys.argv) > 1:
    from sga.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(*sorted(name for name in sys.modules if name.startswith("sga.")))
"""


def fresh(script, *argv):
    """The stdout of `script` run with `argv` in a fresh process that imports sga from this checkout."""
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_submodules(*argv):
    """The sga submodules a fresh process has loaded after ``import sga`` and, given an argv, ``main(argv)``."""
    return set(fresh(LOADED, *argv).split())


def test_from_sga_import_a_submodule():
    script = "import sys\nfrom sga import blades\nprint(blades is sys.modules['sga.blades'], blades.__name__)\n"
    assert fresh(script) == "True sga.blades\n"


def test_import_sga_loads_no_submodule():
    assert loaded_submodules() == set()


def test_tables_loads_only_the_modules_it_runs():
    assert loaded_submodules("tables") == {"sga.cli", "sga.representation", "sga.matrices", "sga.scalars",
                                           "sga.tables"}


def test_build_loads_only_the_modules_it_runs():
    assert loaded_submodules("build", "-K", "5") == {"sga.cli", "sga.representation", "sga.matrices",
                                                     "sga.scalars"}
