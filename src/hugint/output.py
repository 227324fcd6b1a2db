"""CSV and manifest emission for the experiment runners.

Every data file starts with a ``#schema=<name>/<version>`` comment line
followed by a plain header row, so downstream readers can detect layout
changes.  Floats are written with ``repr``, which is the shortest
round-trippable form: a rerun with the same config and seed produces
byte-identical files.  Each experiment also writes a ``*.manifest.json``
next to its data recording the settings the run read, seed, package
version, and wall time.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

import numpy as np


def format_cell(value) -> str:
    """Deterministic text form for a CSV cell."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def write_csv(
    path: str, schema: str, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write rows to ``path`` with a schema comment line and a header row.

    A Python float cell is written with ``repr`` directly, the text
    :func:`format_cell` gives it; rows of ``ndarray.tolist()`` take that path.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"#schema={schema}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(
            ",".join([repr(cell) if type(cell) is float else format_cell(cell) for cell in row])
            + "\n"
            for row in rows
        )


def write_manifest(path: str, config: dict, wall_time_s: float, summary: dict) -> None:
    """Write the run manifest next to the experiment's data files; its
    ``experiment`` and ``seed`` are those of the echoed ``config``."""
    from . import __version__

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = {
        "experiment": config["experiment"],
        "config": config,
        "seed": config["seed"],
        "version": __version__,
        "wall_time_s": wall_time_s,
        "summary": summary,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)!r}")
