"""The package re-exports nothing: every public name has one import path,
the module that defines it."""

import os
import re
import subprocess
import sys

import staged_orders

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(staged_orders.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_importing_the_kernel_loads_no_other_package_module():
    code = (
        "import sys, staged_orders.kernel; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('staged_orders'))))"
    )
    assert _fresh_output(code).split() == ["staged_orders", "staged_orders.kernel"]


def test_importing_the_cli_generates_no_code_and_loads_no_openssl():
    """Records need no dataclasses, and only a config digest needs hashlib.
    Counted against what numpy and click load themselves."""
    code = (
        "import sys, numpy, click; before = set(sys.modules); import staged_orders.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = set(_fresh_output(code).split())
    assert "staged_orders.cli" in loaded
    assert not loaded & {"dataclasses", "_hashlib"}


def test_readme_library_example_runs_as_written():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        library = fh.read().split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(example, namespace)
    assert namespace["edges"] == frozenset({(4, 8)})  # a_0 and a_2: the edge (0, 2)
