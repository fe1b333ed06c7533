"""Exception hierarchy shared by all kernelnn modules, and the config field check."""

import functools
import math
import numbers
from dataclasses import fields
from typing import get_args, get_type_hints


class KernelNNError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(KernelNNError):
    """Operand shapes are incompatible. Messages name both shapes."""


class ContractError(KernelNNError):
    """A documented precondition was violated (e.g. non-scalar backward root)."""


class ConfigError(KernelNNError):
    """A model or training configuration is internally inconsistent."""


class GuardError(KernelNNError):
    """An enumeration/capacity guard refused the request (oracles are exhaustive)."""


class DataError(KernelNNError):
    """An input file failed to parse or violated the documented format."""


class EvaluationError(KernelNNError):
    """A numeric evaluation produced a non-finite value."""


_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", type(None): "null"}


def _holds(kind: type, value) -> bool:
    if kind in (int, float):
        number = numbers.Integral if kind is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool) and abs(value) < math.inf
    return isinstance(value, kind)


@functools.cache
def _field_kinds(cls: type) -> tuple[tuple[str, tuple[type, ...]], ...]:
    """Each init field of dataclass ``cls`` with the types its annotation allows."""
    hints = get_type_hints(cls)  # slow, so resolved once per class
    return tuple((f.name, get_args(hints[f.name]) or (hints[f.name],)) for f in fields(cls) if f.init)


def check_fields(cfg) -> None:
    """Raise ConfigError unless each init field of dataclass ``cfg`` holds its annotated type.

    Counts (``int``) take integers, rates (``float``) finite real numbers and
    flags (``bool``) only true or false: a bool is no number here.
    """
    for name, kinds in _field_kinds(type(cfg)):
        value = getattr(cfg, name)
        if not any(_holds(kind, value) for kind in kinds):
            wanted = " or ".join(_NAMES.get(k, k.__name__) for k in kinds)
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
