"""Hypothesis profiles: ``--hypothesis-profile deep`` runs the property
tests that take their count from the loaded profile at 400 examples each."""

from hypothesis import settings

settings.register_profile("deep", max_examples=400)
