"""Shared fixtures for the test suite."""

import os

import pytest

import densecode
from densecode.linalg import MAX_DIM_ENV_VAR

# Directory that holds the ``densecode`` package this test process imported:
# ``src`` when run with ``PYTHONPATH=src``, site-packages for an installed copy.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(densecode.__file__)))


def _cli_env(base=None):
    """Environment for a ``python -m densecode`` child process.

    Starts from ``base`` (the caller's environment by default), drops
    ``DENSECODE_MAX_DIM`` so a cap set by the caller does not leak into the
    child, and puts ``PACKAGE_DIR`` at the front of ``PYTHONPATH`` so the
    child imports the same ``densecode`` whether or not it is installed.
    The child writes no bytecode, so a test run leaves no ``__pycache__`` in
    the source tree.
    """
    env = dict(os.environ if base is None else base)
    env.pop(MAX_DIM_ENV_VAR, None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_DIR, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def cli_env():
    """The ``_cli_env`` builder, for tests that start the CLI in a subprocess."""
    return _cli_env
