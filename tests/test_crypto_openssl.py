"""The OpenSSL backend: byte-identity with the pure-Python tier, its
failure modes, native-context ownership, and backend selection.

``repro.crypto.openssl`` binds the libcrypto that CPython's ``_hashlib``
already loaded.  Every non-RC4 registry cipher must produce the same
bytes as the ``fast`` tier over random keys, nonces, aad and chunked
``process`` calls; tampered records raise ``AuthenticationError``; bad
key, nonce and IV lengths raise the same ``ValueError``s.
"""

import contextlib
import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    CIPHERS,
    AuthenticationError,
    CipherKind,
    backend,
    new_aead,
    new_stream_cipher,
    openssl,
    recordcache,
    set_backend,
)

try:
    openssl.load()
    HAVE_OPENSSL = True
except openssl.OpenSSLUnavailable:
    HAVE_OPENSSL = False

needs_openssl = pytest.mark.skipif(
    not HAVE_OPENSSL, reason="interpreter's libcrypto cannot be bound")

NON_RC4 = sorted(name for name in CIPHERS if name != "rc4-md5")
STREAMS = [n for n in NON_RC4 if CIPHERS[n].kind == CipherKind.STREAM]
AEADS = [n for n in NON_RC4 if CIPHERS[n].kind == CipherKind.AEAD]

messages = st.binary(min_size=0, max_size=2000)
cuts = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8)


def _chunked(data, fractions):
    points = sorted({int(f * len(data)) for f in fractions})
    chunks, prev = [], 0
    for p in points + [len(data)]:
        chunks.append(data[prev:p])
        prev = p
    return chunks


def _under(name, build):
    set_backend(name)
    try:
        return build()
    finally:
        set_backend(None)


@contextlib.contextmanager
def _no_memo():
    """Fast-tier AEADs compute every record (no record memo)."""
    was = recordcache.enabled()
    recordcache.set_enabled(False)
    try:
        yield
    finally:
        recordcache.set_enabled(was)


@pytest.fixture
def fresh_selection(monkeypatch):
    """Re-run backend selection from the environment in this test."""
    monkeypatch.setattr(backend, "_env_backend", None)
    monkeypatch.setattr(backend, "_override", None)
    monkeypatch.delenv("REPRO_CRYPTO", raising=False)
    yield monkeypatch


def _unbindable(monkeypatch):
    def fail():
        raise openssl.OpenSSLUnavailable("simulated: no libcrypto")

    monkeypatch.setattr(openssl, "load", fail)


# ------------------------------------------------------- byte identity


@needs_openssl
@pytest.mark.parametrize("name", STREAMS)
@given(data=st.data(), message=messages, fractions=cuts,
       encrypt=st.booleans())
@settings(max_examples=25, deadline=None)
def test_stream_openssl_matches_fast_chunked(name, data, message, fractions,
                                             encrypt):
    spec = CIPHERS[name]
    key = data.draw(st.binary(min_size=spec.key_len, max_size=spec.key_len))
    iv = data.draw(st.binary(min_size=spec.iv_len, max_size=spec.iv_len))
    chunks = _chunked(message, fractions)

    def run(backend_name):
        cipher = _under(backend_name,
                        lambda: new_stream_cipher(name, key, iv, encrypt))
        return [cipher.process(chunk) for chunk in chunks]

    ours = run("openssl")
    assert ours == run("fast")
    assert b"".join(ours) == _under(
        "fast", lambda: new_stream_cipher(name, key, iv, encrypt)).process(message)


@needs_openssl
@pytest.mark.parametrize("name", AEADS)
@given(data=st.data(), plaintext=messages, aad=st.binary(max_size=80))
@settings(max_examples=25, deadline=None)
def test_aead_openssl_matches_fast(name, data, plaintext, aad):
    spec = CIPHERS[name]
    key = data.draw(st.binary(min_size=spec.key_len, max_size=spec.key_len))
    nonce = data.draw(st.binary(min_size=12, max_size=12))
    ours = _under("openssl", lambda: new_aead(name, key))
    fast = _under("fast", lambda: new_aead(name, key))
    assert type(ours).__module__ == "repro.crypto.openssl"
    sealed = ours.seal(nonce, plaintext, aad)
    assert len(sealed) == len(plaintext) + 16
    assert ours.open(nonce, sealed, aad) == plaintext
    with _no_memo():
        assert sealed == fast.seal(nonce, plaintext, aad)
        assert fast.open(nonce, sealed, aad) == plaintext


@needs_openssl
@pytest.mark.parametrize("name", STREAMS)
def test_stream_empty_input_and_non_bytes(name):
    spec = CIPHERS[name]
    key, iv = bytes(range(spec.key_len)), bytes(spec.iv_len)
    ours = _under("openssl", lambda: new_stream_cipher(name, key, iv, True))
    fast = _under("fast", lambda: new_stream_cipher(name, key, iv, True))
    assert ours.process(b"") == b""
    assert ours.encrypt(bytearray(b"abc")) == fast.encrypt(b"abc")
    assert ours.decrypt(memoryview(b"defg")) == fast.decrypt(b"defg")


@needs_openssl
def test_openssl_chacha_counter_matches_fast():
    from repro.crypto.chacha20 import ChaCha20

    key, nonce, data = bytes(range(32)), bytes(range(12)), bytes(300)
    for counter in (0, 1, 7, 1 << 20):
        assert (openssl.ChaCha20(key, nonce, counter=counter).process(data)
                == ChaCha20(key, nonce, counter=counter).process(data))
    # RFC 8439 section 2.4.2: the keystream starts at block counter 1.
    out = openssl.ChaCha20(bytes(range(32)), bytes.fromhex(
        "000000000000004a00000000"), counter=1).process(b"Ladies and Gentlemen")
    assert out.hex() == "6e2e359a2568f98041ba0728dd0d6981e97e7aec"


# ------------------------------------------------------ failure modes


@needs_openssl
@pytest.mark.parametrize("name", AEADS)
def test_aead_tampered_and_short_records_fail(name):
    spec = CIPHERS[name]
    aead = openssl.AESGCM(bytes(spec.key_len)) if "gcm" in name \
        else openssl.ChaCha20Poly1305(bytes(32))
    nonce = bytes(range(12))
    sealed = aead.seal(nonce, b"attack at dawn", b"hdr")
    for flip in (0, len(sealed) - 1):  # a ciphertext bit and a tag bit
        bad = bytearray(sealed)
        bad[flip] ^= 1
        with pytest.raises(AuthenticationError):
            aead.open(nonce, bytes(bad), b"hdr")
    with pytest.raises(AuthenticationError):
        aead.open(nonce, sealed, b"other aad")
    for short in (b"", sealed[:15]):
        with pytest.raises(AuthenticationError, match="shorter than tag"):
            aead.open(nonce, short)
    # A failed verify returns its context to the pool in a usable state.
    assert aead.open(nonce, sealed, b"hdr") == b"attack at dawn"
    assert aead.seal(nonce, b"attack at dawn", b"hdr") == sealed


@needs_openssl
def test_bad_lengths_raise_value_error():
    with pytest.raises(ValueError, match="AES key must be 16, 24, or 32"):
        openssl.AESGCM(bytes(20))
    with pytest.raises(ValueError, match="key must be 32 bytes"):
        openssl.ChaCha20Poly1305(bytes(16))
    for aead in (openssl.AESGCM(bytes(16)), openssl.ChaCha20Poly1305(bytes(32))):
        for nonce in (bytes(8), bytes(16)):
            with pytest.raises(ValueError, match="nonce must be 12 bytes"):
                aead.seal(nonce, b"x")
            with pytest.raises(ValueError, match="nonce must be 12 bytes"):
                aead.open(nonce, bytes(32))
            with pytest.raises(ValueError, match="nonce must be 12 bytes"):
                aead.open(nonce, bytes(4))
    with pytest.raises(ValueError, match="ChaCha20 key must be 32"):
        openssl.ChaCha20(bytes(16), bytes(12))
    with pytest.raises(ValueError, match="ChaCha20 nonce must be 12"):
        openssl.ChaCha20(bytes(32), bytes(8))
    with pytest.raises(ValueError, match="ChaCha20 key must be 32"):
        openssl.ChaCha20DJB(bytes(31), bytes(8))
    with pytest.raises(ValueError, match="DJB ChaCha20 nonce must be 8"):
        openssl.ChaCha20DJB(bytes(32), bytes(12))
    with pytest.raises(ValueError, match="CTR IV must be 16"):
        openssl.CTRMode(bytes(16), bytes(12))
    with pytest.raises(ValueError, match="AES key must be 16, 24, or 32"):
        openssl.CTRMode(bytes(17), bytes(16))
    with pytest.raises(ValueError, match="CFB IV must be 16"):
        openssl.CFBMode(bytes(16), bytes(15), encrypt=True)
    with pytest.raises(ValueError, match="AES key must be 16, 24, or 32"):
        openssl.CFBMode(bytes(8), bytes(16), encrypt=False)


# ----------------------------------------------- native context ownership


@needs_openssl
def test_stream_cipher_frees_its_context(monkeypatch):
    freed = []
    real_free = openssl._ctx_free
    monkeypatch.setattr(openssl, "_ctx_free",
                        lambda ctx: (freed.append(ctx), real_free(ctx)))
    cipher = openssl.CTRMode(bytes(16), bytes(16))
    ctx = cipher._ctx
    cipher.process(b"payload")
    del cipher
    gc.collect()
    assert freed == [ctx]


@needs_openssl
def test_aead_instance_holds_no_context():
    aead = openssl.ChaCha20Poly1305(bytes(32))
    assert not hasattr(aead, "__dict__")
    assert set(type(aead).__slots__) | set(openssl._EVPAead.__slots__) \
        == {"_key", "_cipher"}


@needs_openssl
@pytest.mark.parametrize("name", ["aes-256-gcm", "chacha20-ietf-poly1305"])
def test_shared_aead_is_thread_safe(name):
    # More threads than cores on one shared instance, switching often:
    # two calls sharing a pooled context would corrupt a record.
    aead = _under("openssl", lambda: new_aead(name, bytes(range(32))))
    pool = openssl._pools[aead._cipher]
    errors = []

    def worker(tag):
        try:
            for i in range(300):
                nonce = i.to_bytes(12, "little")
                message = bytes([tag]) * (i % 97)
                sealed = aead.seal(nonce, message, bytes([tag]))
                assert aead.open(nonce, sealed, bytes([tag])) == message
                with pytest.raises(AuthenticationError):
                    aead.open(nonce, sealed, b"wrong")
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    before = len(pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(pool) <= before + len(threads)


# ---------------------------------------------------- backend selection


@needs_openssl
def test_default_backend_is_openssl(fresh_selection):
    assert backend.current_backend() == "openssl"
    assert type(new_aead("aes-128-gcm", bytes(16))) is openssl.AESGCM
    rc4 = new_stream_cipher("rc4-md5", bytes(16), bytes(16), True)
    assert type(rc4).__module__ == "repro.crypto.stream"


def test_default_falls_back_to_fast_when_loader_fails(fresh_selection):
    _unbindable(fresh_selection)
    assert backend.current_backend() == "fast"
    from repro.crypto.gcm import AESGCM

    assert type(new_aead("aes-128-gcm", bytes(16))) is AESGCM


def test_explicit_openssl_without_binding_raises(fresh_selection):
    _unbindable(fresh_selection)
    fresh_selection.setenv("REPRO_CRYPTO", "openssl")
    with pytest.raises(openssl.OpenSSLUnavailable):
        backend.current_backend()
    with pytest.raises(openssl.OpenSSLUnavailable):
        set_backend("openssl")


def test_unknown_backend_name_raises(fresh_selection):
    fresh_selection.setenv("REPRO_CRYPTO", "gnutls")
    with pytest.raises(ValueError, match="REPRO_CRYPTO must be one of"):
        backend.current_backend()


def test_binding_is_lazy_at_import():
    code = ("import sys\n"
            "import repro, repro.runtime, repro.crypto, repro.cli\n"
            "print(sorted(m for m in ('ctypes', 'repro.crypto.openssl')"
            " if m in sys.modules))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "scenario_golden.json").read_text())


@pytest.mark.parametrize("crypto", ["openssl", "fast"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_goldens_hold_under_each_backend(crypto, name):
    if crypto == "openssl" and not HAVE_OPENSSL:
        pytest.skip("interpreter's libcrypto cannot be bound")
    from repro.runtime import run_scenario

    from .property.test_batched_datapath import SCENARIO_OVERRIDES

    result = _under(crypto, lambda: run_scenario(
        name, seed=0, overrides=SCENARIO_OVERRIDES[name], use_cache=False))
    assert hashlib.sha256(result.canonical_bytes()).hexdigest() == GOLDEN[name]
