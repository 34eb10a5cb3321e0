"""Make the benchmark modules and the program importable in tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bootstrap  # noqa: E402

bootstrap.add_program_to_path()
