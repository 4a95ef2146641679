"""Configuration knobs declared once, as dataclass fields.

A knob class is a frozen dataclass deriving from :class:`Knobs` whose
fields are made with :func:`knob`.  The field carries its default, its
help text, its bound and, for a duration held in seconds but typed in
milliseconds, its CLI unit; :class:`Knobs` derives everything else from
the field's name and type:

* validation — a value out of bound raises the class's ``error`` naming
  the field;
* :meth:`Knobs.from_env` — field ``x`` reads ``<env_prefix>X``; an unset
  or empty variable keeps the default, a malformed one raises ``error``
  naming the variable;
* :meth:`Knobs.add_cli_arguments` / :meth:`Knobs.from_args` — field
  ``x`` is the flag ``<flag_prefix>x`` (dashes for underscores), which
  defaults to the environment, so a flag overrides its variable;
* :meth:`Knobs.as_dict` — ``{field: value}``.

A value is spelled alike in the environment and on the command line: a
``bool`` as ``1/true/yes/on`` or ``0/false/no/off``, and an optional
int (``int | None``) also as ``none``, ``null`` or ``unlimited``.
Imports only the standard library.
"""

from __future__ import annotations

import argparse
import os
import typing
from dataclasses import field, fields
from typing import Any, Callable, Mapping

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})
_NONE = frozenset({"none", "null", "unlimited"})


def knob(default: Any, help: str, *, ge: float | None = None,
         gt: float | None = None, le: float | None = None,
         cli_ms: bool = False) -> Any:
    """A knob field: its default, help text and bound.

    ``ge`` / ``gt`` / ``le`` bound the value (``None``, the "off" of an
    optional knob, is always in bound).  ``cli_ms`` makes the flag of a
    field held in seconds take milliseconds, as ``--<name>-ms``.
    """
    return field(default=default, metadata={
        "help": help, "ge": ge, "gt": gt, "le": le, "cli_ms": cli_ms,
    })


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_optional_int(raw: str) -> int | None:
    return None if raw.strip().lower() in _NONE else int(raw)


def _value_type(hint: Any) -> type:
    """The knob's value type, ``int`` for ``int | None``."""
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return args[0] if args else hint


def _parser(hint: Any) -> Callable[[str], Any]:
    """How a knob of type ``hint`` reads its env / CLI spelling."""
    kind = _value_type(hint)
    if kind is bool:
        return _parse_bool
    if kind is int and kind is not hint:
        return _parse_optional_int
    return str.strip if kind is str else kind


def _metavar(hint: Any, flag: str) -> str | None:
    kind = _value_type(hint)
    if kind is float:
        return "MS" if flag.endswith("ms") else "S"
    return {bool: "BOOL", int: "N"}.get(kind)


class Knobs:
    """The env, CLI, validation and dict surface derived from the fields.

    A subclass sets ``env_prefix``, ``flag_prefix``, ``cli_group`` (the
    title of the argument group its flags join, or None) and ``error``
    (what a bad value raises).
    """

    env_prefix = ""
    flag_prefix = "--"
    cli_group: str | None = None
    error: type[Exception] = ValueError

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            ge, gt, le = (spec.metadata.get(key) for key in ("ge", "gt", "le"))
            if value is None or (
                (ge is None or value >= ge) and (gt is None or value > gt)
                and (le is None or value <= le)
            ):
                continue
            if ge is not None and le is not None:
                bound = f"in [{ge}, {le}]"
            else:
                bound = f">= {ge}" if ge is not None else f"> {gt}"
            raise self.error(f"{spec.name} must be {bound}, got {value}")

    @classmethod
    def _flags(cls) -> list[tuple[Any, Any, str]]:
        """``(field, type, flag)`` of every knob, in declaration order."""
        hints = typing.get_type_hints(cls)
        return [(spec, hints[spec.name], cls.flag_prefix
                 + spec.name.replace("_", "-")
                 + ("-ms" if spec.metadata["cli_ms"] else ""))
                for spec in fields(cls)]

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None):
        """Build from ``<env_prefix><FIELD>`` variables.

        Unset or empty variables keep the field default; a malformed
        value raises ``error`` naming the variable, so a typo fails fast
        at startup rather than silently falling back.
        """
        env = os.environ if env is None else env
        values: dict[str, Any] = {}
        for spec, hint, _flag in cls._flags():
            key = cls.env_prefix + spec.name.upper()
            raw = env.get(key)
            if not raw:
                continue
            try:
                values[spec.name] = _parser(hint)(raw)
            except ValueError as exc:
                raise cls.error(
                    f"environment variable {key}={raw!r} is not a valid "
                    f"value for {spec.name}: {exc}") from None
        return cls(**values)

    @classmethod
    def add_cli_arguments(cls, parser: argparse.ArgumentParser,
                          base: Any = None) -> None:
        """Attach one flag per knob, defaulting to ``base``.

        ``base`` defaults to :meth:`from_env`, so environment
        configuration applies unless a flag overrides it.
        """
        base = cls.from_env() if base is None else base
        target = (parser if cls.cli_group is None
                  else parser.add_argument_group(cls.cli_group))
        for spec, hint, flag in cls._flags():
            default = getattr(base, spec.name)
            if spec.metadata["cli_ms"]:
                default *= 1000.0
            target.add_argument(
                flag, type=_parser(hint), default=default,
                metavar=_metavar(hint, flag),
                help=f"{spec.metadata['help']} (default: %(default)s)")

    @classmethod
    def from_args(cls, args: argparse.Namespace):
        """Build from a parsed :meth:`add_cli_arguments` namespace."""
        values: dict[str, Any] = {}
        for spec, _hint, flag in cls._flags():
            value = getattr(args, flag[2:].replace("-", "_"))
            if spec.metadata["cli_ms"]:
                value /= 1000.0
            values[spec.name] = value
        return cls(**values)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly ``{field: value}`` view."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


__all__ = ["Knobs", "knob"]
