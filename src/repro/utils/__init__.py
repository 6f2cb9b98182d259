"""Small shared utilities: RNG handling and validation helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import require

__all__ = ["ensure_rng", "require"]
