"""Repository hygiene checks; the one that reads git is skipped outside a
git checkout."""

import importlib
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    # the ceiling keeps git from finding a repository above this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True, timeout=60, env=env)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        pytest.skip("not run in a git checkout")
    res = _git("ls-files", "-ci", "--exclude-standard")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "", f"tracked files that .gitignore lists:\n{res.stdout}"


def test_filter_asserting_tests_exist():
    # the list that filter-off runs leave out names tests that exist
    from tests.conftest import FILTER_ASSERTING_TESTS

    for test_id in FILTER_ASSERTING_TESTS:
        path, name = test_id.split("::")
        module = importlib.import_module(path[:-len(".py")].replace("/", "."))
        assert callable(getattr(module, name, None)), test_id
