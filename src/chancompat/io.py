"""JSON encoding of channels and analysis reports.

Channel files carry ``dim_in``, ``dim_out`` and exactly one of ``kraus``
(list of matrices) or ``choi`` (single matrix), plus an optional ``label``.
A complex scalar is encoded as the two-element array ``[re, im]`` and a
matrix as an array of rows. Matrices are written with full float precision
so a load/save/load cycle is entrywise exact.
"""

from __future__ import annotations

import json
from typing import Any, Callable

import numpy as np

from .channels import EPS_VALID, Channel, KrausSet, choi_from_kraus, validate_channel

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "load_json",
    "load_channel",
    "save_channel",
    "LoadError",
]


class LoadError(ValueError):
    """Malformed or invalid channel or matrix file."""


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _number(x: Any) -> Any:
    """x itself, unless it is a JSON boolean, which Python counts as a number."""
    if isinstance(x, bool):
        raise TypeError("boolean where a number is expected")
    return x


def matrix_from_json(data: Any, what: str = "matrix") -> np.ndarray:
    try:
        m = np.array(
            [[complex(_number(re), _number(im)) for re, im in row] for row in data], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{what}: expected equal-length rows of [re, im] pairs") from exc
    if m.ndim != 2 or m.size == 0:
        raise LoadError(f"{what}: expected a non-empty 2-d array of rows")
    if not np.isfinite(m).all():
        raise LoadError(f"{what}: entries must be finite")
    return m


def channel_to_json(
    obj: Channel | KrausSet, label: str | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {"dim_in": obj.dim_in, "dim_out": obj.dim_out}
    if isinstance(obj, KrausSet):
        doc["kraus"] = [matrix_to_json(k) for k in obj.operators]
    else:
        doc["choi"] = matrix_to_json(obj.choi)
    if label is not None:
        doc["label"] = label
    return doc


def channel_from_json(doc: Any, atol: float = EPS_VALID) -> tuple[Channel, KrausSet | None]:
    """Decode and CPTP-validate a channel document.

    Returns the channel together with its Kraus set when the document carried
    one (``None`` for Choi-form documents).
    """
    if not isinstance(doc, dict):
        raise LoadError("channel document must be a JSON object")
    for key in ("dim_in", "dim_out"):
        if not isinstance(doc.get(key), int) or isinstance(doc[key], bool) or doc[key] < 1:
            raise LoadError(f"missing or invalid '{key}'")
    dim_in, dim_out = doc["dim_in"], doc["dim_out"]
    has_kraus, has_choi = "kraus" in doc, "choi" in doc
    if has_kraus == has_choi:
        raise LoadError("exactly one of 'kraus' or 'choi' is required")
    try:
        if has_kraus:
            if not isinstance(doc["kraus"], list):
                raise LoadError("'kraus' must be a list of matrices")
            ops = tuple(
                matrix_from_json(k, f"kraus[{i}]") for i, k in enumerate(doc["kraus"])
            )
            kraus = KrausSet(dim_in, dim_out, ops)
            return choi_from_kraus(kraus, atol=atol), kraus
        channel = Channel(dim_in, dim_out, matrix_from_json(doc["choi"], "choi"))
        validate_channel(channel, atol=atol)
        return channel, None
    except LoadError:
        raise
    except ValueError as exc:
        raise LoadError(str(exc)) from exc


def load_json(path: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of the JSON document in the file ``path``. Every error,
    including a ``ValueError`` from ``decode``, is a :class:`LoadError` that
    names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: malformed JSON ({exc})") from exc
    try:
        return decode(doc)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def _channel_with_label(doc: Any) -> tuple[Channel, KrausSet | None, str | None]:
    channel, kraus = channel_from_json(doc)
    label = doc.get("label") if isinstance(doc.get("label"), str) else None
    return channel, kraus, label


def load_channel(path: str) -> tuple[Channel, KrausSet | None, str | None]:
    return load_json(path, _channel_with_label)


def save_channel(path: str, obj: Channel | KrausSet, label: str | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_json(obj, label), fh)
        fh.write("\n")
