"""Hypothesis profiles: ``--hypothesis-profile deep`` runs the property
tests that take their count from the loaded profile at 400 examples each.

The repository's ``src`` goes first on ``PYTHONPATH``, so the Python
subprocesses that tests start import this checkout's ``diurnal`` even when
pytest runs without ``PYTHONPATH=src`` and no package is installed."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("deep", max_examples=400)

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
