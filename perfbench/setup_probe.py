"""Time one fresh-process set-up of lwrvsl.

Usage, from the root of a checkout: python3 perfbench/setup_probe.py CONFIG.yaml

Imports lwrvsl from ./src, parses the configuration file (which builds
the scenario: parameters, grid and boundary data) and prints the
elapsed seconds. Interpreter start-up is not included.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(config_path: str) -> None:
    sys.path.insert(0, "src")
    from lwrvsl.config import parse_config

    parse_config(Path(config_path).read_text())
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1])
