"""Shape check for ``BENCHMARK.json``, written from the benchmark contract.

The contract refuses a manifest outside any of these limits before a single
run, so the harness and the smoke test both call :func:`validate` first.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25


def load(path: Path = MANIFEST_PATH) -> dict:
    return json.loads(path.read_text())


def _leads_out(path: str) -> bool:
    return path.startswith("/") or ".." in path.split("/")


def validate(manifest: dict, raw_size: int = 0) -> list[str]:
    """Every way ``manifest`` breaks the contract (empty when it is valid)."""
    errors: list[str] = []
    if raw_size > MAX_BYTES:
        errors.append(f"file is {raw_size} bytes, over {MAX_BYTES}")
    if set(manifest) != KEYS:
        errors.append(f"keys {sorted(manifest)} are not exactly {sorted(KEYS)}")
        return errors

    paths = manifest["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths must list 1 to 16 directories")
        paths = []
    for path in paths:
        if not isinstance(path, str) or not PATH_RE.match(path) \
                or _leads_out(path):
            errors.append(f"bad path {path!r}")

    command = manifest["command"]
    if not isinstance(command, list) or not 1 <= len(command) <= 32:
        errors.append("command must be a list of 1 to 32 strings")
        command = []
    for arg in command:
        if not isinstance(arg, str) or not 0 < len(arg) <= 200:
            errors.append(f"bad command argument {arg!r}")
        elif _leads_out(arg):
            errors.append(f"command argument {arg!r} leads out of the repo")
        elif "/" in arg and not any(
                arg == p or arg.startswith(p.rstrip("/") + "/")
                for p in paths if isinstance(p, str)):
            errors.append(f"command names {arg!r}, which is outside paths")

    seconds = manifest["run_seconds"]
    if type(seconds) is not int or not 1 <= seconds <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []

    def entries(key: str, low: int, high: int, fields: set[str]) -> list[dict]:
        items = manifest[key]
        if not isinstance(items, list) or not low <= len(items) <= high:
            errors.append(f"{key} must hold {low} to {high} entries")
            return []
        good = []
        for item in items:
            if not isinstance(item, dict) or set(item) != fields:
                errors.append(f"{key} entry {item!r} must have exactly "
                              f"{sorted(fields)}")
                continue
            name = item["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                errors.append(f"bad name {name!r} in {key}")
            names.append(name)
            good.append(item)
        return good

    for item in entries("workloads", 2, 8, {"name", "why"}):
        why = item["why"]
        if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
            errors.append(f"why of {item['name']!r} must be one line of at "
                          "most 200 characters")

    def check_metric(item: dict, key: str) -> None:
        if not isinstance(item["unit"], str) or not UNIT_RE.match(item["unit"]):
            errors.append(f"bad unit {item['unit']!r} for {item['name']!r}")
        if item["better"] not in ("lower", "higher"):
            errors.append(f"{key} metric {item['name']!r}: better must be "
                          "'lower' or 'higher'")

    end_to_end = entries("end_to_end", 1, 16,
                         {"name", "unit", "better", "bound"})
    for item in end_to_end:
        check_metric(item, "end_to_end")
        bound = item["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) \
                or not 0 < bound <= MAX_BOUND:
            errors.append(f"bound of {item['name']!r} must be in "
                          f"(0, {MAX_BOUND}]")
    if not any(item["name"] == "setup_s" and item["unit"] == "s"
               and item["better"] == "lower" for item in end_to_end):
        errors.append("end_to_end needs setup_s with unit 's', better 'lower'")

    for item in entries("per_layer", 1, 128, {"name", "unit", "better"}):
        check_metric(item, "per_layer")

    repeated = sorted({n for n in names if isinstance(n, str)
                       and names.count(n) > 1})
    if repeated:
        errors.append(f"names used more than once: {repeated}")
    return errors


def validate_file(path: Path = MANIFEST_PATH) -> list[str]:
    raw = path.read_bytes()
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if not isinstance(manifest, dict):
        return ["top level is not an object"]
    return validate(manifest, len(raw))

