"""Atomic artifact files and the one CSV format every artifact uses.

A file is written to a fresh temp file in its target directory and renamed
over the target, so a reader never sees a partial artifact; the directory is
created with its first artifact.  The temp file is created like any other
file, so the artifact keeps the umask's default mode.  A CSV artifact is one
header row, then one row per sample, each value its shortest round-trip
``repr`` (integers as integers), with ``\\n`` line ends.

A field file holds values only, one ``value`` row per node in C order over
``(x[, x2][, y3])``, y3 fastest.  The node coordinates of a run go once to
its ``grid.csv`` (`write_grid`).
"""
from __future__ import annotations

import os
from typing import Iterable

import numpy as np


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the concatenated text chunks to `path` atomically, creating its
    directory if needed."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    os.makedirs(parent or ".", exist_ok=True)
    tmp = os.path.join(parent, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    try:
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:  # the temp file is gone after a successful rename
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, header, columns) -> None:
    """Write the columns, broadcast together and flattened in C order, as a
    CSV artifact under `header`."""
    cols = [c.ravel() for c in np.broadcast_arrays(*map(np.asarray, columns))]

    def chunks():  # a block of rows at a time keeps the Python objects few
        yield ",".join(header) + "\n"
        for start in range(0, cols[0].size, 1024):
            block = [map(repr, c[start:start + 1024].tolist()) for c in cols]
            yield "\n".join(map(",".join, zip(*block))) + "\n"

    write_atomic(path, chunks())


def write_grid(outdir, grid, vnodes=None) -> str:
    """Write a run's node coordinates to ``<outdir>/grid.csv`` and return the
    path.  Rows are ``axis,coordinate``, one per node in node order: x (or x1
    then x2) of the periodic `grid`, then y3 of `vnodes` when given."""
    named = list(zip(["x"] if grid.dim == 1 else ["x1", "x2"], grid.nodes))
    if vnodes is not None:
        named.append(("y3", vnodes.nodes))
    path = os.path.join(outdir, "grid.csv")
    write_atomic(path, ["axis,coordinate\n",
                        *(f"{axis},{c!r}\n" for axis, nodes in named for c in nodes.tolist())])
    return path


def save_snapshots(outdir, grid, vnodes, named: dict) -> list[str]:
    """Write the run's ``grid.csv`` (`write_grid`), then a snapshot series
    held as one array per field name, the snapshots along its leading axis:
    snapshot i of field `name` goes to ``<name>_<i:04d>.csv``.  Returns the
    paths in the order written, snapshot by snapshot."""
    written = [write_grid(outdir, grid, vnodes)]
    for idx, snapshot in enumerate(zip(*named.values())):
        for name, values in zip(named, snapshot):
            written.append(os.path.join(outdir, f"{name}_{idx:04d}.csv"))
            write_csv(written[-1], ["value"], [values])
    return written
