"""Flat sectioned key-value configuration files.

Hand-rolled instead of configparser so every diagnostic can point at the
exact file line.  Syntax:

    # comment
    [section]
    key = value

Numbers may be written as fractions ("1/200") to keep refinement studies
exact in intent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .errors import ConfigurationError


@dataclass(frozen=True)
class ConfigValue:
    raw: str
    line: int


class Config:
    def __init__(self, path: Path):
        self.path = Path(path)
        self.sections: dict[str, dict[str, ConfigValue]] = {}
        self._section_lines: dict[str, int] = {}

    # -- parsing ------------------------------------------------------------

    @classmethod
    def load(cls, path) -> "Config":
        cfg = cls(path)
        try:  # utf-8-sig: a byte-order mark is not part of line 1
            text = cfg.path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{cfg.path}: cannot read config: {exc}") from exc
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith(";"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if not section:
                    raise ConfigurationError(f"{cfg.path}:{lineno}: empty section name")
                cfg.sections.setdefault(section, {})
                cfg._section_lines.setdefault(section, lineno)
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{cfg.path}:{lineno}: expected 'key = value', got {line!r}"
                )
            if section is None:
                raise ConfigurationError(
                    f"{cfg.path}:{lineno}: key outside any [section]"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigurationError(f"{cfg.path}:{lineno}: empty key")
            if key in cfg.sections[section]:
                raise ConfigurationError(
                    f"{cfg.path}:{lineno}: duplicate key {section}.{key}"
                )
            cfg.sections[section][key] = ConfigValue(value.strip(), lineno)
        return cfg

    # -- accessors ----------------------------------------------------------

    def fail(self, section: str, key: str, message: str) -> NoReturn:
        """Raise ConfigurationError for section.key, at its line if it is set."""
        cv = self.sections.get(section, {}).get(key)
        where = f"{self.path}:{cv.line}: " if cv is not None else f"{self.path}: "
        raise ConfigurationError(f"{where}{section}.{key}: {message}")

    def _lookup(self, section: str, key: str, default, parse, what: str = ""):
        """parse(text) of section.key, or `default` when the key is unset;
        with no default the key is required.  A ValueError from parse is
        reported as `what` at the key's line."""
        cv = self.sections.get(section, {}).get(key)
        if cv is None:
            if default is None:
                self.fail(section, key, "missing required key")
            return default
        try:
            return parse(cv.raw)
        except ValueError:
            self.fail(section, key, f"{what}: {cv.raw!r}")

    def get_str(self, section: str, key: str, default: str | None = None) -> str:
        return self._lookup(section, key, default, str)

    def get_number(self, section: str, key: str, default: float | None = None) -> float:
        return self._lookup(section, key, default, parse_number, "not a number")

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        return self._lookup(section, key, default, int, "not an integer")

    def get_number_list(self, section: str, key: str) -> list[float]:
        return self._lookup(section, key, None, _parse_number_list,
                            "not a comma-separated number list")

    def reject_unknown(self, known: dict[str, set[str]]) -> None:
        """Error on sections/keys outside the given schema (catches typos)."""
        for section, keys in self.sections.items():
            if section not in known:
                line = self._section_lines.get(section, 0)
                raise ConfigurationError(
                    f"{self.path}:{line}: unknown section [{section}]"
                )
            for key, cv in keys.items():
                if key not in known[section]:
                    raise ConfigurationError(
                        f"{self.path}:{cv.line}: unknown key {section}.{key}"
                    )


def parse_number(token: str) -> float:
    """Finite float literal or exact fraction 'a/b'; ValueError if it is
    neither, the denominator is zero, or the value is nan or infinite."""
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        num, den = float(num), float(den)
        if den == 0.0:
            raise ValueError(f"zero denominator in {token!r}")
        value = num / den
    else:
        value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token!r}")
    return value


def _parse_number_list(text: str) -> list[float]:
    return [parse_number(tok) for tok in text.split(",") if tok.strip()]
