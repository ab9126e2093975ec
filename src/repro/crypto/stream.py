"""Stream ciphers for the (deprecated) Shadowsocks stream construction.

Implements enough cipher variety to cover every IV length the protocol
allows (8, 12, or 16 bytes), which is what the GFW's length-targeted
probes key on:

* ``chacha20``      — original DJB variant, 8-byte nonce
* ``chacha20-ietf`` — RFC 8439 variant, 12-byte nonce
* ``aes-{128,192,256}-{ctr,cfb}`` — 16-byte IV
* ``rc4-md5``       — 16-byte IV, RC4 keyed by MD5(key || IV)

``new_stream_cipher`` honours the ``REPRO_CRYPTO`` backend switch (see
:mod:`repro.crypto.backend`): OpenSSL's EVP ciphers (the default when
usable; RC4 stays on this module's class), these pure-Python ones, or
the retained reference ones for equivalence testing.
"""

from __future__ import annotations

import hashlib
import struct

from .chacha20 import _CONSTANTS, _KeystreamCipher, _run_rounds, xor_bytes

__all__ = ["RC4", "ChaCha20DJB", "new_stream_cipher"]


class RC4:
    """RC4 keystream XOR (for the ``rc4-md5`` method)."""

    def __init__(self, key: bytes):
        if not key:
            raise ValueError("RC4 key must be non-empty")
        s = list(range(256))
        j = 0
        for i in range(256):
            j = (j + s[i] + key[i % len(key)]) % 256
            s[i], s[j] = s[j], s[i]
        self._s = s
        self._i = 0
        self._j = 0

    def process(self, data: bytes) -> bytes:
        # RC4's state swap makes every output byte depend on the last, so
        # this stays a byte loop; precomputing the keystream separately
        # and XORing whole buffers still beats xor-as-you-go.
        s, i, j = self._s, self._i, self._j
        n = len(data)
        ks = bytearray(n)
        for pos in range(n):
            i = (i + 1) & 0xFF
            sj = s[i]
            j = (j + sj) & 0xFF
            si = s[j]
            s[i] = si
            s[j] = sj
            ks[pos] = s[(si + sj) & 0xFF]
        self._i, self._j = i, j
        return xor_bytes(data, ks)

    encrypt = process
    decrypt = process


class ChaCha20DJB(_KeystreamCipher):
    """Incremental original-variant ChaCha20 (8-byte nonce)."""

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 8:
            raise ValueError(f"DJB ChaCha20 nonce must be 8 bytes, got {len(nonce)}")
        super().__init__()
        self._init = (
            list(_CONSTANTS) + list(struct.unpack("<8L", key)) + [0, 0]
            + list(struct.unpack("<2L", nonce))
        )
        self._counter = 0

    def _blocks(self, nblocks: int) -> bytes:
        counter = self._counter
        self._counter += nblocks
        init = self._init
        parts = []
        for i in range(nblocks):
            c = counter + i
            init[12] = c & 0xFFFFFFFF
            init[13] = (c >> 32) & 0xFFFFFFFF
            parts.append(_run_rounds(init))
        return b"".join(parts)


def new_stream_cipher(name: str, key: bytes, iv: bytes, encrypt: bool):
    """Build an incremental stream cipher object for one direction.

    ``encrypt`` only matters for CFB, whose feedback register differs by
    direction; CTR/ChaCha/RC4 are symmetric.
    """
    from .backend import stream_cipher_impls

    chacha_djb, chacha_ietf, rc4, ctr, cfb = stream_cipher_impls()
    if name == "chacha20":
        return chacha_djb(key, iv)
    if name == "chacha20-ietf":
        return chacha_ietf(key, iv)
    if name == "rc4-md5":
        return rc4(hashlib.md5(key + iv).digest())
    if name.startswith("aes-") and name.endswith("-ctr"):
        return ctr(key, iv)
    if name.startswith("aes-") and name.endswith("-cfb"):
        return cfb(key, iv, encrypt=encrypt)
    raise ValueError(f"unknown stream cipher method: {name!r}")
