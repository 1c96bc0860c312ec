"""Pins the exact ConfigError entries that strict parsing reports for every
location of the fuzz BASE document: the value deleted, set to null, "x" or
1.5, and each object given an unknown key. Regenerate the golden file with

    PYTHONPATH=src python tests/test_config_errors.py
"""

import copy
import json
from pathlib import Path

from pfasfab import ConfigError, parse_config

from test_config_fuzz import BASE, PATHS, _at

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "config_errors.txt"

_REPLACEMENTS = (("null", None), ('"x"', "x"), ("1.5", 1.5))


def _location(path) -> str:
    text = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return text.lstrip(".") or "<root>"


def _outcome(document) -> str:
    try:
        parse_config(json.dumps(document), strict=True)
    except ConfigError as exc:
        return " | ".join(f"{loc}: {msg}" for loc, msg in exc.entries)
    return "ok"


def error_lines() -> list[str]:
    lines = []
    for path in PATHS:
        where = _location(path)
        if path:
            document = copy.deepcopy(BASE)
            del _at(document, path[:-1])[path[-1]]
            lines.append(f"{where} deleted -> {_outcome(document)}")
        for label, value in _REPLACEMENTS:
            if path:
                document = copy.deepcopy(BASE)
                _at(document, path[:-1])[path[-1]] = value
            else:
                document = value
            lines.append(f"{where} = {label} -> {_outcome(document)}")
        if isinstance(_at(BASE, path), dict):
            document = copy.deepcopy(BASE)
            _at(document, path)["extra"] = 1
            lines.append(f"{where} + extra -> {_outcome(document)}")
    return lines


def test_config_error_entries_match_golden():
    expected = GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
    assert error_lines() == expected


if __name__ == "__main__":
    GOLDEN_FILE.write_text("\n".join(error_lines()) + "\n", encoding="utf-8")
