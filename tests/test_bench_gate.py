"""The benchmark's tracer wraps package functions by name; this runs its
wrapping test in the package's suite, so a change under src/ that drops one
of those names fails here too. It runs no solve."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from test_bench import test_tracer_restores_every_wrapped_name  # noqa: E402,F401
