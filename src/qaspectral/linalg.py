# src/qaspectral/linalg.py

"""Dense complex matrix kernel.

Everything in the package models operators as square numpy arrays of
complex128.  This module holds the shared primitives: the comparison
tolerances ABS_TOL and REL_TOL (fixed; no function takes a tolerance),
validation, the operator (largest-singular-value) norm, Kronecker
products with a desk-scale dimension cap, and the JSON matrix file format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, ResourceError

# Kronecker results above this dimension are refused.
DIMENSION_CAP = 4096

# Absolute and relative comparison tolerances used throughout.
ABS_TOL = 1e-10
REL_TOL = 1e-8


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return M as a square complex128 array."""
    A = np.asarray(M, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] == 0:
        raise InputError(f"{name} must be nonempty")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} has non-finite entries")
    return A


def adjoint(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def hermitian_part(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2


def op_norm(M) -> float:
    """Largest singular value of a square matrix."""
    A = as_matrix(M)
    return float(np.linalg.norm(A, 2))


def kron(A, B) -> np.ndarray:
    """Kronecker product with the desk-scale dimension cap."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    dim = A.shape[0] * B.shape[0]
    if dim > DIMENSION_CAP:
        raise ResourceError(
            f"Kronecker product dimension {dim} exceeds cap {DIMENSION_CAP}"
        )
    return np.kron(A, B)


def matrix_power(M: np.ndarray, n: int) -> np.ndarray:
    """M**n for any integer n; negative powers go through the inverse."""
    A = as_matrix(M)
    if n >= 0:
        return np.linalg.matrix_power(A, n)
    return np.linalg.matrix_power(np.linalg.inv(A), -n)


def save_matrix(path, M) -> None:
    """Write a matrix as JSON: {"dim": k, "entries": [[[re, im], ...], ...]}."""
    A = as_matrix(M)
    payload = {
        "dim": int(A.shape[0]),
        "entries": [
            [[float(z.real), float(z.imag)] for z in row] for row in A
        ],
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def is_json_number(x) -> bool:
    """A decoded JSON number that converts to a finite float; not a bool."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def load_json(path):
    """Decode a JSON file; an unreadable or undecodable file is an InputError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """Read the JSON matrix format; rejects non-square payloads."""
    payload = load_json(path)
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise InputError(f"{path}: expected an object with 'dim' and 'entries'")
    dim = payload["dim"]
    rows = payload["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"{path}: 'dim' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in rows
    ):
        raise InputError(f"{path}: entries are not a {dim}x{dim} square array")
    A = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_json_number, pair))):
                raise InputError(f"{path}: entry ({i},{j}) is not a [re, im] pair of numbers")
            A[i, j] = complex(pair[0], pair[1])
    return as_matrix(A, str(path))
