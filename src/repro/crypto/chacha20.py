"""ChaCha20 stream cipher (RFC 8439, "IETF" variant: 96-bit nonce).

Shadowsocks uses ``chacha20-ietf`` as a stream cipher (12-byte IV) and
ChaCha20 as the keystream half of ``chacha20-ietf-poly1305``.  The round
function is inlined and unrolled, keystream is generated a whole buffer
of blocks per call and consumed through a cursor, and the XOR runs over
the whole buffer as one big-integer operation — this cipher carries the
bulk of the simulated tunnel traffic, so per-block and per-byte overhead
matter.
"""

from __future__ import annotations

import struct
from functools import lru_cache

__all__ = ["chacha20_block", "ChaCha20", "xor_bytes"]

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_M = 0xFFFFFFFF


def xor_bytes(a, b) -> bytes:
    """XOR two equal-length byte strings as one big-integer operation.

    Shared by every keystream consumer (ChaCha, CTR, CFB, RC4, GCM).
    """
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def _run_rounds(init: list) -> bytes:
    """20 ChaCha rounds over ``init``; returns the serialized block.

    The double round is fully unrolled over sixteen named locals: the
    per-word list loads/stores and the quarter-round index walk of a
    rolled loop cost more than the arithmetic itself, and this function
    carries every tunnel byte in the simulation.
    """
    i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, iA, iB, iC, iD, iE, iF = init
    x0, x1, x2, x3, x4, x5, x6, x7 = i0, i1, i2, i3, i4, i5, i6, i7
    x8, x9, xA, xB, xC, xD, xE, xF = i8, i9, iA, iB, iC, iD, iE, iF
    for _ in range(10):
        # Column round: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15)
        x0 = (x0 + x4) & _M; xC ^= x0; xC = ((xC << 16) | (xC >> 16)) & _M
        x8 = (x8 + xC) & _M; x4 ^= x8; x4 = ((x4 << 12) | (x4 >> 20)) & _M
        x0 = (x0 + x4) & _M; xC ^= x0; xC = ((xC << 8) | (xC >> 24)) & _M
        x8 = (x8 + xC) & _M; x4 ^= x8; x4 = ((x4 << 7) | (x4 >> 25)) & _M
        x1 = (x1 + x5) & _M; xD ^= x1; xD = ((xD << 16) | (xD >> 16)) & _M
        x9 = (x9 + xD) & _M; x5 ^= x9; x5 = ((x5 << 12) | (x5 >> 20)) & _M
        x1 = (x1 + x5) & _M; xD ^= x1; xD = ((xD << 8) | (xD >> 24)) & _M
        x9 = (x9 + xD) & _M; x5 ^= x9; x5 = ((x5 << 7) | (x5 >> 25)) & _M
        x2 = (x2 + x6) & _M; xE ^= x2; xE = ((xE << 16) | (xE >> 16)) & _M
        xA = (xA + xE) & _M; x6 ^= xA; x6 = ((x6 << 12) | (x6 >> 20)) & _M
        x2 = (x2 + x6) & _M; xE ^= x2; xE = ((xE << 8) | (xE >> 24)) & _M
        xA = (xA + xE) & _M; x6 ^= xA; x6 = ((x6 << 7) | (x6 >> 25)) & _M
        x3 = (x3 + x7) & _M; xF ^= x3; xF = ((xF << 16) | (xF >> 16)) & _M
        xB = (xB + xF) & _M; x7 ^= xB; x7 = ((x7 << 12) | (x7 >> 20)) & _M
        x3 = (x3 + x7) & _M; xF ^= x3; xF = ((xF << 8) | (xF >> 24)) & _M
        xB = (xB + xF) & _M; x7 ^= xB; x7 = ((x7 << 7) | (x7 >> 25)) & _M
        # Diagonal round: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14)
        x0 = (x0 + x5) & _M; xF ^= x0; xF = ((xF << 16) | (xF >> 16)) & _M
        xA = (xA + xF) & _M; x5 ^= xA; x5 = ((x5 << 12) | (x5 >> 20)) & _M
        x0 = (x0 + x5) & _M; xF ^= x0; xF = ((xF << 8) | (xF >> 24)) & _M
        xA = (xA + xF) & _M; x5 ^= xA; x5 = ((x5 << 7) | (x5 >> 25)) & _M
        x1 = (x1 + x6) & _M; xC ^= x1; xC = ((xC << 16) | (xC >> 16)) & _M
        xB = (xB + xC) & _M; x6 ^= xB; x6 = ((x6 << 12) | (x6 >> 20)) & _M
        x1 = (x1 + x6) & _M; xC ^= x1; xC = ((xC << 8) | (xC >> 24)) & _M
        xB = (xB + xC) & _M; x6 ^= xB; x6 = ((x6 << 7) | (x6 >> 25)) & _M
        x2 = (x2 + x7) & _M; xD ^= x2; xD = ((xD << 16) | (xD >> 16)) & _M
        x8 = (x8 + xD) & _M; x7 ^= x8; x7 = ((x7 << 12) | (x7 >> 20)) & _M
        x2 = (x2 + x7) & _M; xD ^= x2; xD = ((xD << 8) | (xD >> 24)) & _M
        x8 = (x8 + xD) & _M; x7 ^= x8; x7 = ((x7 << 7) | (x7 >> 25)) & _M
        x3 = (x3 + x4) & _M; xE ^= x3; xE = ((xE << 16) | (xE >> 16)) & _M
        x9 = (x9 + xE) & _M; x4 ^= x9; x4 = ((x4 << 12) | (x4 >> 20)) & _M
        x3 = (x3 + x4) & _M; xE ^= x3; xE = ((xE << 8) | (xE >> 24)) & _M
        x9 = (x9 + xE) & _M; x4 ^= x9; x4 = ((x4 << 7) | (x4 >> 25)) & _M
    return struct.pack(
        "<16L",
        (x0 + i0) & _M, (x1 + i1) & _M, (x2 + i2) & _M, (x3 + i3) & _M,
        (x4 + i4) & _M, (x5 + i5) & _M, (x6 + i6) & _M, (x7 + i7) & _M,
        (x8 + i8) & _M, (x9 + i9) & _M, (xA + iA) & _M, (xB + iB) & _M,
        (xC + iC) & _M, (xD + iD) & _M, (xE + iE) & _M, (xF + iF) & _M,
    )


@lru_cache(maxsize=4096)
def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3).

    Memoized: the dominant caller is Poly1305 one-time-key derivation,
    which evaluates the identical (key, counter=0, nonce) block on the
    sealing and the opening side of every AEAD record in one process.
    The function is pure, so the cache is unobservable; 4096 entries of
    64 bytes bound it to ~¼ MB.
    """
    if len(key) != 32:
        raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != 12:
        raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    init = list(_CONSTANTS)
    init.extend(struct.unpack("<8L", key))
    init.append(counter & _M)
    init.extend(struct.unpack("<3L", nonce))
    return _run_rounds(init)


class _KeystreamCipher:
    """Shared cursor machinery for the incremental ChaCha variants.

    Subclasses provide ``_blocks(nblocks)`` producing that many 64-byte
    keystream blocks and advancing the counter.  ``process`` keeps
    unconsumed keystream in a ``bytearray`` drained through a cursor
    (never re-sliced, so large streams stay linear) and XORs whole
    buffers at a time.
    """

    _BLOCK = 64

    def __init__(self) -> None:
        self._ks = bytearray()
        self._pos = 0

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        if len(self._ks) - self._pos < n:
            need = n - (len(self._ks) - self._pos)
            nblocks = (need + self._BLOCK - 1) // self._BLOCK
            fresh = self._blocks(nblocks)
            if self._pos:
                del self._ks[: self._pos]
                self._pos = 0
            self._ks += fresh
        ks = memoryview(self._ks)[self._pos : self._pos + n]
        out = xor_bytes(data, ks)
        ks.release()
        self._pos += n
        if self._pos == len(self._ks):
            self._ks.clear()
            self._pos = 0
        return out

    encrypt = process
    decrypt = process


class ChaCha20(_KeystreamCipher):
    """Incremental ChaCha20 keystream XOR, as used for a TCP byte stream."""

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
        super().__init__()
        self._init = (
            list(_CONSTANTS) + list(struct.unpack("<8L", key)) + [0]
            + list(struct.unpack("<3L", nonce))
        )
        self._counter = counter

    def _blocks(self, nblocks: int) -> bytes:
        counter = self._counter
        self._counter += nblocks
        init = self._init
        parts = []
        for i in range(nblocks):
            init[12] = (counter + i) & _M
            parts.append(_run_rounds(init))
        return b"".join(parts)
