"""The run directory: how a grid persists and resumes.

A single run resumes through the store (``--cache-dir``); a grid — a
distributed sweep or an ablation campaign — also records which cells
finished, in one directory bound to one plan::

    <dir>/<plan file>         schema + fingerprint (+ the plan itself)
    <dir>/cells/<slug>.json   one published row per finished cell

Re-binding a directory to a different plan raises
:class:`~repro.errors.ResumeError`.  Files go through
:func:`repro.cache.atomic_write`; a missing or torn row counts as "not
published" and its cell runs again.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..cache import atomic_write
from ..errors import ResumeError

PathLike = Union[str, Path]

#: Bumped when the run-directory layout changes incompatibly (2: plans
#: and rows no longer carry ``state_dir``; rows are :class:`CellRow`).
RUN_DIR_SCHEMA = 2

CELLS_DIR = "cells"


def slugify(name: str) -> str:
    """Filesystem-safe file stem for a cell id (ids contain ``/``)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def write_json(path: PathLike, payload: Any) -> None:
    """Atomically publish one JSON document."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    atomic_write(path, text.encode("utf-8"))


def read_plan(run_dir: PathLike, plan_file: str, what: str) -> Dict[str, Any]:
    """The stored plan; raises :class:`ResumeError` when unusable."""
    path = Path(run_dir) / plan_file
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ResumeError(
            f"{path.parent} is not a {what} run directory "
            f"(no readable plan): {exc}"
        ) from exc
    except ValueError as exc:
        raise ResumeError(f"{path} is not valid JSON: {exc}") from exc
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != RUN_DIR_SCHEMA:
        raise ResumeError(
            f"{path}: plan schema {schema!r} is not {RUN_DIR_SCHEMA}"
        )
    return payload


def bind_plan(
    run_dir: PathLike, plan_file: str, plan: Dict[str, Any], what: str
) -> Dict[str, Any]:
    """Publish ``plan`` into a fresh directory, or validate a stored one.

    ``plan`` must carry a ``fingerprint``.  An existing plan with the
    same fingerprint is the resume path and is returned as stored; a
    different fingerprint raises :class:`ResumeError`.
    """
    if (Path(run_dir) / plan_file).exists():
        stored = read_plan(run_dir, plan_file, what)
        if stored.get("fingerprint") != plan["fingerprint"]:
            raise ResumeError(
                f"run directory {run_dir} holds a different {what} "
                f"(fingerprint {str(stored.get('fingerprint'))[:12]} != "
                f"{plan['fingerprint'][:12]}); use a fresh --run-dir or "
                "delete the old one"
            )
        return stored
    stored = dict(plan, schema=RUN_DIR_SCHEMA)
    write_json(Path(run_dir) / plan_file, stored)
    return stored


def row_path(run_dir: PathLike, slug: str) -> Path:
    return Path(run_dir) / CELLS_DIR / f"{slug}.json"


def publish_row(run_dir: PathLike, slug: str, row: Dict[str, Any]) -> None:
    """Atomically (re)publish one cell's row; the last writer wins."""
    write_json(row_path(run_dir, slug), row)


def read_json(path: PathLike) -> Optional[Dict[str, Any]]:
    """A published JSON object, or None (missing/torn = not published)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def load_row(run_dir: PathLike, slug: str) -> Optional[Dict[str, Any]]:
    """A published row, or None (missing/torn = not published)."""
    return read_json(row_path(run_dir, slug))


__all__ = [
    "CELLS_DIR",
    "RUN_DIR_SCHEMA",
    "bind_plan",
    "load_row",
    "publish_row",
    "read_json",
    "read_plan",
    "row_path",
    "slugify",
    "write_json",
]
