"""The package re-exports nothing: every public name has one import path,
the module that defines it."""

import os
import re
import subprocess
import sys

import pytest

import staged_orders
from conftest import shipped_config_path
from staged_orders.cli import CONSTRUCTIONS, NAMES, _construction, main
from staged_orders.kernel import Construction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_output(code: str, *argv: str) -> str:
    """What `code` prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(staged_orders.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return out.stdout


_COMMAND = """
import sys
from staged_orders.cli import main
code = 0
try:
    main.main(args=sys.argv[1:], prog_name="staged-orders")
except SystemExit as exc:
    code = exc.code
print()
print(code, *sys.modules)
"""


def _command(*argv: str):
    """One command in a fresh interpreter: its exit code and every module
    loaded by the time it ends."""
    code, *modules = _fresh_output(_COMMAND, *argv).splitlines()[-1].split()
    return int(code), set(modules)


@pytest.mark.parametrize(
    "argv",
    [("--help",), *((name, "--help") for name in main.commands), ("verify",)],
    ids=" ".join,
)
def test_help_and_usage_errors_load_no_numpy_and_no_other_package_module(argv):
    code, modules = _command(*argv)
    assert code == (2 if argv == ("verify",) else 0)
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("staged_orders")} == {"staged_orders", "staged_orders.cli"}


# every module bench/tracing.py wraps
PACKAGE_MODULES = {
    f"staged_orders.{m}"
    for m in ("serialize", "kernel", "roles", "spectrum", "sigma2", "jump", "family", "solvers")
}


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--config", shipped_config_path("jump_cochain"), "--out", "{tmp}"),
        ("solve", "--order", "{tmp}", "--principle", "cac"),
        ("verify", "--dir", "{tmp}", "--suite", "poset"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_that_runs_loads_every_package_module(tmp_path, argv):
    """Also when it fails: a missing file is a tool error, exit 2."""
    path = str(tmp_path / "missing")
    code, modules = _command(*(path if a == "{tmp}" else a for a in argv))
    assert code == (0 if argv[0] == "build" else 2)
    assert PACKAGE_MODULES <= modules


def test_every_registry_name_loads_its_construction():
    assert NAMES == tuple(CONSTRUCTIONS) == (
        "sigma2", "family", "jump-cochain", "jump-antichain", "spectrum-ce", "spectrum-coce",
    )
    for name in NAMES:
        con = _construction(name)
        assert isinstance(con, Construction) and con.name == name


def test_importing_the_kernel_loads_no_other_package_module():
    code = (
        "import sys, staged_orders.kernel; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('staged_orders'))))"
    )
    assert _fresh_output(code).split() == ["staged_orders", "staged_orders.kernel"]


def test_importing_the_cli_generates_no_code_and_loads_no_openssl():
    """Records need no dataclasses, and only a config digest needs hashlib.
    Counted against what numpy and click load themselves, over every module
    a command may load."""
    code = (
        "import sys, numpy, click; before = set(sys.modules); "
        "import staged_orders.cli, staged_orders.serialize, staged_orders.solvers, "
        "staged_orders.sigma2, staged_orders.family, staged_orders.jump, staged_orders.spectrum; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = set(_fresh_output(code).split())
    assert {"staged_orders.cli", "staged_orders.spectrum", "staged_orders.roles"} <= loaded
    assert not loaded & {"dataclasses", "_hashlib"}


def test_readme_library_example_runs_as_written():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        library = fh.read().split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(example, namespace)
    assert namespace["edges"] == frozenset({(4, 8)})  # a_0 and a_2: the edge (0, 2)
