"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # demo 04 writes its suite under TMPDIR
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
