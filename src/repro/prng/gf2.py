"""Packed GF(2)-linear maps on 256-bit generator states.

A state is four ``uint64`` words; bit ``b`` of the state is bit ``b % 64``
of word ``b // 64``. A linear map ``M`` is stored packed as a ``(256, 4)``
``uint64`` array whose row ``b`` is ``M·e_b``, the image of the ``b``-th
unit state (8 KiB per map). ``M·s`` is then the XOR of the rows at the set
bits of ``s``.

:func:`apply` evaluates that XOR a byte at a time (the "method of four
Russians"): 32 tables hold the XOR of every subset of 8 consecutive rows,
so one state needs 32 table gathers instead of 256 conditional XORs. The
tables (256 KiB) are built per call and states are gathered in blocks, so
the working set stays a few hundred KiB whatever the number of states.
Everything is integer XOR and gather; no floating-point matrix product is
involved.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["STATE_BITS", "apply", "unit_states"]

#: Bits in one state (four 64-bit words).
STATE_BITS = 256
_WORDS = STATE_BITS // 64
_BYTES = STATE_BITS // 8
#: States gathered per block in :func:`apply` (block × 32 × 4 words = 128 KiB).
_BLOCK = 128
#: Row offset of byte ``k``'s table in the flattened table array.
_TABLE_OFFSETS = np.arange(_BYTES, dtype=np.intp) * 256


def unit_states() -> np.ndarray:
    """The 256 unit states ``e_b`` as a ``(256, 4)`` ``uint64`` array."""
    bits = np.arange(STATE_BITS)
    units = np.zeros((STATE_BITS, _WORDS), dtype=np.uint64)
    units[bits, bits // 64] = np.left_shift(np.uint64(1),
                                            (bits % 64).astype(np.uint64))
    return units


def _byte_tables(matrix: np.ndarray) -> np.ndarray:
    """``(32·256, 4)`` table: entry ``256·k + v`` is the XOR of the rows
    ``8k + i`` for every bit ``i`` set in the byte value ``v``."""
    rows = np.asarray(matrix, dtype=np.uint64).reshape(_BYTES, 8, _WORDS)
    tables = np.zeros((_BYTES, 256, _WORDS), dtype=np.uint64)
    for i in range(8):
        h = 1 << i
        np.bitwise_xor(tables[:, :h], rows[:, i, None], out=tables[:, h:2 * h])
    return tables.reshape(_BYTES * 256, _WORDS)


def apply(matrix: np.ndarray, states: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """``matrix·s`` for every row ``s`` of the ``(n, 4)`` ``uint64`` ``states``.

    Given a packed map as ``states``, this is the packed product: row ``i``
    of ``apply(a, b)`` is ``a·(b·e_i)``, the map "``b`` first, then ``a``".

    ``out`` may be given (shape ``(n, 4)``, ``uint64``, not overlapping
    ``states``) to write the result in place.
    """
    # Little-endian words make byte k of a row hold state bits 8k..8k+7.
    states = np.ascontiguousarray(states, dtype="<u8")
    n = states.shape[0]
    if out is None:
        out = np.empty((n, _WORDS), dtype=np.uint64)
    tables = _byte_tables(matrix)
    idx = np.empty((min(n, _BLOCK), _BYTES), dtype=np.intp)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block_idx = idx[:hi - lo]
        np.add(states[lo:hi].view(np.uint8), _TABLE_OFFSETS, out=block_idx)
        np.bitwise_xor.reduce(tables[block_idx], axis=1, out=out[lo:hi])
    return out
