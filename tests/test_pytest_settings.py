import subprocess
import sys

from conftest import REPO_ROOT

FAILING_PROPERTY_AND_PLAIN_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # under the repository's warning filters, the hypothesis plugin's report
    # of a failure must not turn into an INTERNALERROR that skips later tests
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_AND_PLAIN_TEST)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_pair.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
