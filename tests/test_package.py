"""The package's public namespace and what importing it loads."""

import subprocess
import sys

import motifdiff

from conftest import src_env

# the CLI never imports the first three, and scipy only where it is used
_DEFERRED = ("jsonschema", "multiprocessing", "concurrent.futures", "scipy")


def test_public_names_resolve_once():
    names = motifdiff.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(motifdiff, name)]
    assert missing == []


def test_cli_import_defers_validation_and_the_pool():
    code = f"""
import sys
import motifdiff.cli
from motifdiff.errors import ContractError
from motifdiff.schemas import TRAJECTORY_LINE, validate_output
print([m for m in {_DEFERRED!r} if m in sys.modules])
try:
    validate_output({{"sample": -1, "t": 0.5, "W": [[0.0]]}}, TRAJECTORY_LINE)
except ContractError as exc:
    print("jsonschema" in sys.modules, exc)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env())
    assert done.returncode == 0, done.stderr
    loaded, raised = done.stdout.splitlines()
    assert loaded == "[]"
    # the checker is the package's own; jsonschema is only a test witness
    assert raised == "False output failed its schema: -1 is less than the minimum of 0"
