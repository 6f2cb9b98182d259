"""Exact single-machine matchers: the oracles the STwig engine is checked against."""

from repro.baselines.ullmann import ullmann_match
from repro.baselines.vf2 import vf2_match

__all__ = ["ullmann_match", "vf2_match"]
