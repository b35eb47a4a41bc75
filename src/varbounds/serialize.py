"""Number rounding shared by the JSON reports of the library and the CLI."""

from __future__ import annotations

import json
import math

_SIG_DIGITS = 12
_ROUNDED = f"%.{_SIG_DIGITS}g"


def round_floats(obj):
    """Recursively round floats to 12 significant digits; infinities become strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(_ROUNDED % obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _dumps(obj, pad: str = "\n") -> str:
    """``json.dumps(round_floats(obj), indent=2)`` in one walk, for string keys: no rounded copy.

    A float is written as its 12-digit form t: repr(float(t)) but on integral values, 1e12-1e16 and subnormals.
    """
    if isinstance(obj, float):
        t = _ROUNDED % obj
        if t[-1] in "fn":  # inf, -inf and nan, which round_floats writes as strings
            return f'"{t}"'
        if "e" not in t:
            return t if "." in t else t + ".0"
        return repr(float(t)) if "e+1" in t or "e-3" in t else t  # 1e12-1e16 and subnormals, with a margin
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        return f"[{inner}{(',' + inner).join([_dumps(v, inner) for v in obj])}{pad}]" if obj else "[]"
    return json.dumps(obj)  # str, int, bool or None; json refuses any other type
