"""Persistence: a columnar binary format plus CSV emission.

Binary layout: magic ``DGFB``, a version byte, a little-endian uint32 header
length, a JSON header (kind, dims, grid metadata, array directory), then the
arrays as raw little-endian float64 in directory order, path-major.  Paths,
one or many, are an ``EnsembleTrajectories`` in one file kind,
``path_bundle``.  No header names the seed or streams its data were drawn
from: that belongs to a record of the run, not to an artifact.  Writes are
atomic (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .regularization import FieldGrid
from .sde import EnsembleTrajectories

MAGIC = b"DGFB"
VERSION = 2

__all__ = [
    "save_bundle", "load_bundle",
    "save_field", "load_field",
    "write_csv", "bundle_to_csv", "picard_report_to_csv",
]


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack(kind: str, meta: dict, arrays: Sequence[tuple]) -> bytes:
    directory = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    header = dict(meta)
    header["kind"] = kind
    header["arrays"] = directory
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", VERSION)
    out += struct.pack("<I", len(hjson))
    out += hjson
    for _, arr in arrays:
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return bytes(out)


def _unpack(path) -> tuple:
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a DGFB file")
    version = blob[4]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    (hlen,) = struct.unpack("<I", blob[5:9])
    header = json.loads(blob[9:9 + hlen].decode("utf-8"))
    offset = 9 + hlen
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(shape).astype(float)
        offset += count * 8
    return header, arrays


# -- path bundles -----------------------------------------------------------

def save_bundle(ens: EnsembleTrajectories, path) -> None:
    """Write the paths of an ensemble of any path count; a nan blow-up time
    (no blow-up) round-trips as nan."""
    meta = {
        "dims": {"n_paths": ens.n_paths, "n_steps": ens.n_steps, "m": ens.m,
                 "d": ens.Z.shape[-1] - ens.m, "k": ens.dW.shape[-1]},
        "grid": [float(ens.times[0]), float(ens.times[-1])],
    }
    arrays = [("times", ens.times), ("Z", ens.Z), ("dW", ens.dW), ("eta", ens.eta),
              ("blowup_times", ens.blowup_times)]
    _atomic_write(path, _pack("path_bundle", meta, arrays))


def load_bundle(path) -> EnsembleTrajectories:
    header, arrays = _unpack(path)
    if header["kind"] != "path_bundle":
        raise ValueError(f"{path}: expected a path_bundle, got {header['kind']}")
    return EnsembleTrajectories(times=arrays["times"], Z=arrays["Z"], dW=arrays["dW"],
                                eta=arrays["eta"], blowup_times=arrays["blowup_times"],
                                m=int(header["dims"]["m"]))


# -- field grids -------------------------------------------------------------

def save_field(field: FieldGrid, path) -> None:
    meta = {
        "dims": {"m": field.m, "d": field.d, "n_time": int(field.times.size),
                 "shape": [int(a.size) for a in field.axes]},
        "grid": {"lo": [float(a[0]) for a in field.axes],
                 "hi": [float(a[-1]) for a in field.axes]},
        "bound": field.sup_value(),
    }
    arrays = [("times", field.times)]
    arrays += [(f"axis{i}", a) for i, a in enumerate(field.axes)]
    arrays += [("values", field.values)]
    _atomic_write(path, _pack("field_grid", meta, arrays))


def load_field(path) -> FieldGrid:
    header, arrays = _unpack(path)
    if header["kind"] != "field_grid":
        raise ValueError(f"{path}: expected a field_grid, got {header['kind']}")
    dims = header["dims"]
    axes = tuple(arrays[f"axis{i}"] for i in range(len(dims["shape"])))
    return FieldGrid(times=arrays["times"], axes=axes, values=arrays["values"],
                     m=int(dims["m"]), d=int(dims["d"]))


# -- CSV ----------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomic CSV write with a header row; floats (numpy float scalars
    included) written as plain Python float reprs, at full precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v
                                 for v in row])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def bundle_to_csv(bundle: EnsembleTrajectories, path) -> None:
    """Row-per-(path, node) CSV for bundles of at most 64 paths."""
    if bundle.n_paths > 64:
        raise ValueError(f"bundle too large for CSV ({bundle.n_paths} paths; "
                         "cap 64); use the binary format")
    m = bundle.X.shape[-1]
    d = bundle.Y.shape[-1]
    header = ["path", "t"] + [f"x{i}" for i in range(m)] + [f"y{i}" for i in range(d)]
    rows = []
    for p in range(bundle.n_paths):
        for i, t in enumerate(bundle.times):
            rows.append([p, float(t)] + [float(v) for v in bundle.X[p, i]]
                        + [float(v) for v in bundle.Y[p, i]])
    write_csv(path, header, rows)


def picard_report_to_csv(report, path) -> None:
    """Per-iteration residuals and contraction factors plus summary fields."""
    header = ["iteration", "residual", "factor", "lam", "sup_u", "sup_grad2",
              "converged", "tol"]
    rows = []
    for i, res in enumerate(report.residuals, start=1):
        factor = report.factors[i - 2] if i >= 2 else float("nan")
        rows.append([i, float(res), float(factor), float(report.lam),
                     float(report.sup_u), float(report.sup_grad2),
                     int(report.converged), float(report.tol)])
    write_csv(path, header, rows)
