"""The suite's warnings-as-errors policy still lets a failing property report itself.

Hypothesis imports more code to print a falsifying example, and a
deprecation raised there must not stop the session: the example is shown
and the tests after it still run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(i):
    assert i < 5


def test_a_later_test():
    pass
'''


def test_a_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example" in done.stdout
