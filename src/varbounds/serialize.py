"""Number rounding shared by the JSON reports of the library and the CLI."""

from __future__ import annotations

import math

_SIG_DIGITS = 12


def round_floats(obj):
    """Recursively round floats to 12 significant digits; infinities become strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.{_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj
