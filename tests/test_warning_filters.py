"""The pytest settings: a failing Hypothesis test fails alone, and the run goes on."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# a falsified @given test, then a plain test that must still run
FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_drawn_value_is_small(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
'''


def test_a_falsified_example_fails_only_its_test(tmp_path):
    # Hypothesis imports libcst to explain a falsified example; a warning that the
    # filters turn into an error there stops the pytest run with exit 3 (INTERNALERROR)
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 1, result.stdout[-2000:]
    assert "1 failed, 1 passed" in result.stdout
