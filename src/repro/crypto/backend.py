"""Crypto backend switch: OpenSSL, optimized pure Python, or references.

Three interchangeable implementations sit behind the cipher factories
(``new_aead``, ``new_stream_cipher``), all byte-identical by test:

* ``openssl``   — OpenSSL's EVP ciphers (:mod:`repro.crypto.openssl`),
  bound through ctypes from the libcrypto CPython's ``_hashlib`` has
  already loaded; standard library only.  ``rc4-md5`` stays pure Python.
* ``fast``      — the optimized pure-Python implementations, the spec
  and the fallback where no usable libcrypto exists.
* ``reference`` — the retained originals (:mod:`repro.crypto._reference`),
  the equivalence oracle.

Which backend a run uses is unobservable in its output.  With
``REPRO_CRYPTO`` unset the default is ``openssl`` when the binding
loads and ``fast`` otherwise; an explicit ``REPRO_CRYPTO=openssl`` that
cannot bind raises instead of falling back.  The binding is attempted
on the first cipher construction, never at import time:

    REPRO_CRYPTO=fast python -m repro run shadowsocks ...

``set_backend`` overrides the environment for the current process (used
by the equivalence tests and ``repro bench --backend``).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Optional

__all__ = ["BACKENDS", "current_backend", "set_backend",
           "stream_cipher_impls", "aead_impls"]

BACKENDS = ("openssl", "fast", "reference")

_override: Optional[str] = None
_env_backend: Optional[str] = None


def _openssl_loads() -> bool:
    """Whether the OpenSSL binding is usable in this process."""
    from . import openssl

    try:
        openssl.load()
    except openssl.OpenSSLUnavailable:
        return False
    return True


def current_backend() -> str:
    """Active backend name: the ``set_backend`` override, else $REPRO_CRYPTO.

    The environment variable is read (and validated) once per process —
    this sits on the per-session ``new_aead`` path, and an ``environ``
    probe costs more than the whole dispatch.  In-process switching goes
    through :func:`set_backend`, which always wins over the cached value.
    """
    if _override is not None:
        return _override
    global _env_backend
    if _env_backend is None:
        name = os.environ.get("REPRO_CRYPTO", "").strip().lower()
        if not name:
            name = "openssl" if _openssl_loads() else "fast"
        elif name not in BACKENDS:
            raise ValueError(
                f"REPRO_CRYPTO must be one of {BACKENDS}, got {name!r}")
        elif name == "openssl":
            from . import openssl

            openssl.load()  # an explicit request never falls back
        _env_backend = name
    return _env_backend


def set_backend(name: Optional[str]) -> None:
    """Force a backend for this process; ``None`` returns to the env var.

    ``set_backend("openssl")`` raises if the binding cannot load.
    """
    global _override
    if name is not None and name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    if name == "openssl":
        from . import openssl

        openssl.load()
    _override = name


def stream_cipher_impls():
    """(chacha20_djb, chacha20_ietf, rc4, ctr, cfb) constructors."""
    return _stream_impls_for(current_backend())


def aead_impls():
    """(aes_gcm, chacha20_poly1305) constructors."""
    return _aead_impls_for(current_backend())


@lru_cache(maxsize=None)
def _stream_impls_for(name: str):
    from .stream import RC4

    if name == "reference":
        from . import _reference as ref

        return (ref.ReferenceChaCha20DJB, ref.ReferenceChaCha20,
                ref.ReferenceRC4, ref.ReferenceCTRMode, ref.ReferenceCFBMode)
    if name == "openssl":
        from . import openssl as ossl

        return (ossl.ChaCha20DJB, ossl.ChaCha20, RC4, ossl.CTRMode,
                ossl.CFBMode)
    from .chacha20 import ChaCha20
    from .modes import CFBMode, CTRMode
    from .stream import ChaCha20DJB

    return (ChaCha20DJB, ChaCha20, RC4, CTRMode, CFBMode)


@lru_cache(maxsize=None)
def _aead_impls_for(name: str):
    if name == "reference":
        from . import _reference as ref

        return (ref.ReferenceAESGCM, ref.ReferenceChaCha20Poly1305)
    if name == "openssl":
        from . import openssl as ossl

        return (ossl.AESGCM, ossl.ChaCha20Poly1305)
    from .aead import ChaCha20Poly1305
    from .gcm import AESGCM

    return (AESGCM, ChaCha20Poly1305)
