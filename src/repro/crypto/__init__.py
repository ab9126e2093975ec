"""Cryptographic substrate for the Shadowsocks reproduction.

No third-party crypto libraries are used.  The ciphers have three
byte-identical backends behind ``new_aead``/``new_stream_cipher``,
chosen by ``REPRO_CRYPTO`` (see :mod:`repro.crypto.backend`):

* ``openssl`` (default when usable) — OpenSSL's EVP ciphers from the
  libcrypto CPython's ``_hashlib`` already loaded, bound through
  ``ctypes`` on first use (:mod:`repro.crypto.openssl`);
* ``fast`` — pure Python, implemented from the specs (FIPS 197,
  SP 800-38D, RFC 8439) and validated against published test vectors;
  the fallback where the binding cannot load;
* ``reference`` — the retained textbook originals, the test oracle.

Key derivation (RFC 5869 HKDF-SHA1, EVP_BytesToKey) and RC4 are pure
Python on every backend.  The classes exported here are the ``fast``
ones.
"""

from .aead import AESGCM, AuthenticationError, ChaCha20Poly1305, new_aead
from .aes import AES
from .backend import current_backend, set_backend
from .chacha20 import ChaCha20, chacha20_block
from .kdf import derive_subkey, evp_bytes_to_key, hkdf_sha1
from .modes import CFBMode, CTRMode
from .poly1305 import poly1305_mac
from .registry import CIPHERS, CipherKind, CipherSpec, get_spec, specs_by_kind
from .stream import RC4, ChaCha20DJB, new_stream_cipher

__all__ = [
    "AES",
    "AESGCM",
    "AuthenticationError",
    "CFBMode",
    "CIPHERS",
    "CTRMode",
    "ChaCha20",
    "ChaCha20DJB",
    "ChaCha20Poly1305",
    "CipherKind",
    "CipherSpec",
    "RC4",
    "chacha20_block",
    "current_backend",
    "derive_subkey",
    "evp_bytes_to_key",
    "get_spec",
    "hkdf_sha1",
    "new_aead",
    "new_stream_cipher",
    "poly1305_mac",
    "set_backend",
    "specs_by_kind",
]
