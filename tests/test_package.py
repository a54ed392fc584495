"""The package root: the README's entry points, and nothing that loads the writers."""

import subprocess
import sys
from pathlib import Path

import lwrvsl

SRC = Path(__file__).resolve().parent.parent / "src"


def test_root_holds_the_library_entry_points():
    assert sorted(lwrvsl.__all__) == [
        "__version__",
        "assemble_problem",
        "feedback_gain",
        "params_from_paper_units",
        "reference_scenario",
        "run_simulation",
    ]
    assert all(hasattr(lwrvsl, name) for name in lwrvsl.__all__)


def test_config_import_leaves_the_writers_unloaded():
    # the CLI and the bench's set-up probe start with this import; a fresh
    # interpreter shows what it loads, where this process has loaded everything
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import lwrvsl.config\n"
        "print(sorted(m for m in ('lwrvsl.output', 'lwrvsl.cli', 'lwrvsl.verify', 'json')"
        " if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
