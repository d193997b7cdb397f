"""Shared exception types, and the refusal that keeps value objects fixed."""


class SizeLimitError(ValueError):
    """An input exceeds the desk-scale size caps this package enforces."""


def refuse_change(obj: object, name: str, *value: object) -> None:
    """__setattr__ and __delattr__ of a class whose instances never change."""
    raise AttributeError(f"{type(obj).__name__}.{name} cannot be changed")
