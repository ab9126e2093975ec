"""OpenSSL EVP ciphers, bound from the libcrypto CPython already loaded.

Every CPython with a working :mod:`hashlib` maps ``libcrypto`` into the
process through its ``_hashlib`` extension.  ``ctypes.CDLL`` on that
extension's own file returns a handle whose symbol lookup searches its
dependency tree, so the EVP cipher API resolves in exactly the library
that is already resident: no third-party package, no second copy of
OpenSSL, no extra memory.  The binding is made on first use (see
:func:`load`), never at import time.

The classes mirror the pure-Python ones in shape, checks and errors:

* :class:`AESGCM` (AES-128/192/256-GCM, by key length) and
  :class:`ChaCha20Poly1305`, with ``seal``/``open`` and a trailing
  16-byte tag; a failed tag check raises :class:`AuthenticationError`;
* :class:`ChaCha20` (IETF, 12-byte nonce, optional start counter),
  :class:`ChaCha20DJB` (8-byte nonce), :class:`CTRMode` (full-width
  big-endian counter) and :class:`CFBMode` (CFB128), with
  ``process``/``encrypt``/``decrypt`` carrying state across calls.

OpenSSL's ChaCha20 takes a 16-byte IV laid out as the last four state
words: a little-endian 32-bit counter then the 12-byte IETF nonce, or,
for the original variant, a 64-bit counter (8 zero bytes) then the
8-byte nonce.  (Past 2**32 blocks, 256 GiB under one nonce, OpenSSL
carries the IETF counter into the nonce where the pure-Python tier
wraps it; no session comes near.)  ``rc4-md5`` has no counterpart here: OpenSSL 3 ships RC4
only in its legacy provider, so it stays on the pure-Python ``RC4``.

Native context ownership: a stream cipher owns one ``EVP_CIPHER_CTX``
for its lifetime and frees it through :func:`weakref.finalize`.  An
AEAD object holds only its key and the fetched cipher; each call takes
a context from a per-cipher free list and gives it back afterwards.
``list.pop``/``list.append`` are atomic, so two threads sharing one
AEAD object never share a context, and the lists only ever hold as many
contexts as calls were once in flight together.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from ctypes import POINTER, byref, c_char_p, c_int, c_ulong, c_void_p
from typing import Dict, List

from .gcm import AuthenticationError

__all__ = [
    "AESGCM",
    "CFBMode",
    "CTRMode",
    "ChaCha20",
    "ChaCha20DJB",
    "ChaCha20Poly1305",
    "OpenSSLError",
    "OpenSSLUnavailable",
    "load",
]

TAG_SIZE = 16

# EVP_CIPHER_CTX_ctrl codes (include/openssl/evp.h).
_CTRL_AEAD_GET_TAG = 0x10
_CTRL_AEAD_SET_TAG = 0x11

# Every cipher the backend fetches; all must resolve for it to load.
_CIPHER_NAMES = (
    "AES-128-GCM", "AES-192-GCM", "AES-256-GCM", "ChaCha20-Poly1305",
    "ChaCha20",
    "AES-128-CTR", "AES-192-CTR", "AES-256-CTR",
    "AES-128-CFB", "AES-192-CFB", "AES-256-CFB",
)

_SIGNATURES = {
    "OpenSSL_version_num": (c_ulong, []),
    "EVP_CIPHER_fetch": (c_void_p, [c_void_p, c_char_p, c_char_p]),
    "EVP_CIPHER_CTX_new": (c_void_p, []),
    "EVP_CIPHER_CTX_free": (None, [c_void_p]),
    "EVP_CipherInit_ex": (
        c_int, [c_void_p, c_void_p, c_void_p, c_char_p, c_char_p, c_int]),
    "EVP_CipherUpdate": (
        c_int, [c_void_p, c_void_p, POINTER(c_int), c_char_p, c_int]),
    "EVP_CipherFinal_ex": (c_int, [c_void_p, c_void_p, POINTER(c_int)]),
    "EVP_CIPHER_CTX_ctrl": (c_int, [c_void_p, c_int, c_int, c_void_p]),
    "ERR_get_error": (c_ulong, []),
    "ERR_clear_error": (None, []),
}


class OpenSSLUnavailable(ImportError):
    """The interpreter's libcrypto cannot serve the EVP cipher API."""


class OpenSSLError(RuntimeError):
    """An EVP call failed for a reason other than a bad tag."""


_lib = None
_load_lock = threading.Lock()
_ciphers: Dict[str, int] = {}
_pools: Dict[int, List[int]] = {}

# Bound entry points, filled in by load().
_ctx_new = _ctx_free = _init = _update = _final = _ctrl = None


def load():
    """Bind libcrypto once per process; raise OpenSSLUnavailable if unusable.

    Needs OpenSSL 3 (``EVP_CIPHER_fetch``) with every cipher of
    ``_CIPHER_NAMES`` available from the default providers.
    """
    if _lib is not None:
        return _lib
    with _load_lock:
        if _lib is None:
            _bind()
    return _lib


def _bind() -> None:
    global _lib, _ctx_new, _ctx_free, _init, _update, _final, _ctrl
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (ImportError, OSError, AttributeError) as exc:
        raise OpenSSLUnavailable(f"cannot bind libcrypto: {exc}") from exc
    version = lib.OpenSSL_version_num()
    if version < 0x30000000:
        raise OpenSSLUnavailable(f"need OpenSSL 3, found {version:#x}")
    ciphers = {}
    for name in _CIPHER_NAMES:
        cipher = lib.EVP_CIPHER_fetch(None, name.encode(), None)
        if not cipher:
            lib.ERR_clear_error()
            raise OpenSSLUnavailable(f"libcrypto has no {name} cipher")
        ciphers[name] = cipher
    _ciphers.update(ciphers)
    _pools.update((ciphers[name], []) for name in _CIPHER_NAMES
                  if name.endswith(("GCM", "Poly1305")))
    _ctx_new, _ctx_free = lib.EVP_CIPHER_CTX_new, lib.EVP_CIPHER_CTX_free
    _init, _update = lib.EVP_CipherInit_ex, lib.EVP_CipherUpdate
    _final, _ctrl = lib.EVP_CipherFinal_ex, lib.EVP_CIPHER_CTX_ctrl
    _lib = lib


def _error(what: str) -> OpenSSLError:
    """The error for a failed ``what``, draining libcrypto's error queue."""
    code = _lib.ERR_get_error()
    _lib.ERR_clear_error()
    return OpenSSLError(f"{what} failed (OpenSSL error {code:#x})")


def _new_ctx(cipher: int, key=None, iv=None, enc: int = 1) -> int:
    """A fresh context bound to ``cipher`` (keyed if ``key`` is given)."""
    ctx = _ctx_new()
    if not ctx:
        raise MemoryError("EVP_CIPHER_CTX_new returned NULL")
    if _init(ctx, cipher, None, key, iv, enc) != 1:
        _ctx_free(ctx)
        raise _error("EVP_CipherInit_ex")
    return ctx


def _check_aes_key(key: bytes) -> None:
    if len(key) not in (16, 24, 32):
        raise ValueError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")


def _as_bytes(data) -> bytes:
    # ctypes passes a bytes object's own buffer; anything else is copied.
    return data if type(data) is bytes else bytes(data)


# ---------------------------------------------------------------- AEADs


class _EVPAead:
    """Shared seal/open over one fetched EVP AEAD cipher (12-byte nonce)."""

    TAG_SIZE = TAG_SIZE
    NONCE_SIZE = 12
    _NONCE_ERROR = ""
    _MISMATCH = ""

    __slots__ = ("_key", "_cipher")

    def _take(self, enc: int, nonce: bytes) -> int:
        """A pooled context keyed for one call (``enc`` 1 seal, 0 open)."""
        try:
            ctx = _pools[self._cipher].pop()
        except IndexError:
            ctx = _new_ctx(self._cipher)
        if _init(ctx, None, None, self._key, _as_bytes(nonce), enc) != 1:
            _ctx_free(ctx)
            raise _error("EVP_CipherInit_ex")
        return ctx

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and append the 16-byte tag."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(self._NONCE_ERROR.format(len(nonce)))
        ctx = self._take(1, nonce)
        n = len(plaintext)
        out = ctypes.create_string_buffer(n + TAG_SIZE)
        outl = c_int()
        ok = ((not aad or _update(ctx, None, byref(outl), _as_bytes(aad),
                                  len(aad)) == 1)
              and (not n or (_update(ctx, out, byref(outl),
                                     _as_bytes(plaintext), n) == 1
                             and outl.value == n))
              and _final(ctx, out, byref(outl)) == 1 and outl.value == 0
              and _ctrl(ctx, _CTRL_AEAD_GET_TAG, TAG_SIZE,
                        byref(out, n)) == 1)
        if not ok:
            _ctx_free(ctx)
            raise _error("AEAD seal")
        _pools[self._cipher].append(ctx)
        return out.raw

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the trailing tag and decrypt; raise AuthenticationError."""
        if len(nonce) != self.NONCE_SIZE:
            raise ValueError(self._NONCE_ERROR.format(len(nonce)))
        if len(sealed) < TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than tag")
        sealed = _as_bytes(sealed)
        ctx = self._take(0, nonce)
        n = len(sealed) - TAG_SIZE
        out = ctypes.create_string_buffer(n)
        outl = c_int()
        ok = (_ctrl(ctx, _CTRL_AEAD_SET_TAG, TAG_SIZE, sealed[n:]) == 1
              and (not aad or _update(ctx, None, byref(outl), _as_bytes(aad),
                                      len(aad)) == 1)
              and (not n or (_update(ctx, out, byref(outl), sealed[:n], n) == 1
                             and outl.value == n)))
        if not ok:
            _ctx_free(ctx)
            raise _error("AEAD open")
        # The final call checks the tag.  A mismatch leaves the context
        # sound (the next call re-keys it), so it goes back to the pool.
        verified = _final(ctx, out, byref(outl)) == 1
        _pools[self._cipher].append(ctx)
        if not verified:
            _lib.ERR_clear_error()
            raise AuthenticationError(self._MISMATCH)
        return out.raw


class AESGCM(_EVPAead):
    """AES-GCM (SP 800-38D) with a 12-byte nonce; AES size from the key."""

    _NONCE_ERROR = "GCM nonce must be 12 bytes"
    _MISMATCH = "GCM tag mismatch"

    __slots__ = ()

    def __init__(self, key: bytes):
        _check_aes_key(key)
        load()
        self._cipher = _ciphers[f"AES-{8 * len(key)}-GCM"]
        self._key = bytes(key)


class ChaCha20Poly1305(_EVPAead):
    """ChaCha20-Poly1305 AEAD per RFC 8439."""

    KEY_SIZE = 32
    _NONCE_ERROR = "ChaCha20 nonce must be 12 bytes, got {}"
    _MISMATCH = "Poly1305 tag mismatch"

    __slots__ = ()

    def __init__(self, key: bytes):
        if len(key) != self.KEY_SIZE:
            raise ValueError(f"key must be {self.KEY_SIZE} bytes, got {len(key)}")
        load()
        self._cipher = _ciphers["ChaCha20-Poly1305"]
        self._key = bytes(key)


# ------------------------------------------------------- stream ciphers


class _EVPStream:
    """One direction of a stream cipher over an owned EVP context."""

    __slots__ = ("_ctx", "__weakref__")

    def _start(self, cipher: str, key: bytes, iv: bytes, encrypt: bool) -> None:
        load()
        self._ctx = _new_ctx(_ciphers[cipher], bytes(key), bytes(iv),
                             int(encrypt))
        weakref.finalize(self, _ctx_free, self._ctx).atexit = False

    def process(self, data: bytes) -> bytes:
        n = len(data)
        if not n:
            return b""
        out = ctypes.create_string_buffer(n)
        outl = c_int()
        if (_update(self._ctx, out, byref(outl), _as_bytes(data), n) != 1
                or outl.value != n):
            raise _error("EVP_CipherUpdate")
        return out.raw

    encrypt = process
    decrypt = process


class ChaCha20(_EVPStream):
    """Incremental IETF ChaCha20 (12-byte nonce, 32-bit block counter)."""

    __slots__ = ()

    def __init__(self, key: bytes, nonce: bytes, counter: int = 0):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 12:
            raise ValueError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
        iv = (counter & 0xFFFFFFFF).to_bytes(4, "little") + bytes(nonce)
        self._start("ChaCha20", key, iv, True)


class ChaCha20DJB(_EVPStream):
    """Incremental original-variant ChaCha20 (8-byte nonce)."""

    __slots__ = ()

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != 32:
            raise ValueError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
        if len(nonce) != 8:
            raise ValueError(f"DJB ChaCha20 nonce must be 8 bytes, got {len(nonce)}")
        self._start("ChaCha20", key, bytes(8) + bytes(nonce), True)


class CTRMode(_EVPStream):
    """AES-CTR with a big-endian full-block counter."""

    __slots__ = ()

    def __init__(self, key: bytes, iv: bytes):
        if len(iv) != 16:
            raise ValueError(f"CTR IV must be 16 bytes, got {len(iv)}")
        _check_aes_key(key)
        self._start(f"AES-{8 * len(key)}-CTR", key, iv, True)


class CFBMode(_EVPStream):
    """AES-CFB128 (full-block feedback), incremental."""

    __slots__ = ()

    def __init__(self, key: bytes, iv: bytes, encrypt: bool):
        if len(iv) != 16:
            raise ValueError(f"CFB IV must be 16 bytes, got {len(iv)}")
        _check_aes_key(key)
        self._start(f"AES-{8 * len(key)}-CFB", key, iv, encrypt)
