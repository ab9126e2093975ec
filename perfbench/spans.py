"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public entry points of the simulator's layers
with thin wrappers before a world is built.  Each wrapped call records a
span (name, start, end, parent, run id) into flat in-memory arrays and
bumps the layer's counters; :meth:`Tracer.uninstall` puts every original
attribute back.  Nothing under ``src/`` is edited: the wrappers are
installed on the live classes and module attributes.

Self time of a span is its duration minus the part of it covered by its
child spans, so the per-layer self times of one run add up to the root
span's duration.  The simulator's event loop is a ``runtime`` span: a
callback that no layer wrapper covers (a TCP timer, an application
callback) is booked to ``runtime``, never to the layer that happens to
enclose the loop.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
import types
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("crypto", "net", "gfw", "proxy", "workloads", "analysis", "runtime")

# Counter names every traced run reports, zero when a layer is idle.
COUNTS = (
    "crypto.seal_calls", "crypto.open_calls", "crypto.open_failures",
    "crypto.stream_calls", "crypto.bytes",
    "net.events", "net.segments", "net.bursts", "net.burst_segments",
    "gfw.segments_inspected", "gfw.probes_sent",
    "proxy.records_encrypted", "proxy.records_decrypted",
    "workloads.payload_calls", "workloads.payload_bytes",
    "analysis.observe_calls",
)

_MISSING = object()


def _nbytes(value: Any) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview)) else 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str = "run") -> None:
        self.run_id = run_id
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset(run_id)

    # ------------------------------------------------------------ recording

    def reset(self, run_id: str) -> None:
        """Drop recorded spans and counts; start a new run id."""
        self.run_id = run_id
        self.name_id = array.array("l")
        self.parent = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]
        self._layers: List[str] = [""]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str, *,
             count: Optional[Callable[[Counter, tuple, Any], None]] = None,
             on_error: Optional[str] = None,
             nested: str = "span") -> Callable:
        """A wrapper around ``fn`` recording span ``name`` ("layer.what").

        ``count(counts, args, result)`` runs after a successful call;
        ``on_error`` names a counter bumped when the call raises.  When
        the innermost open span is already in the same layer, ``nested``
        decides: ``"span"`` records a child span as usual, ``"count"``
        only counts, ``"skip"`` only calls through (work already counted
        by the enclosing call, e.g. the keystream inside an AEAD seal).
        """
        layer = name.split(".", 1)[0]
        nid = self._intern(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if nested != "span" and tracer._layers[-1] == layer:
                if nested == "skip":
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, result)
                return result
            index = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0)
            tracer.end.append(0)
            tracer._stack.append(index)
            tracer._layers.append(layer)
            tracer.start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    tracer.counts[on_error] += 1
                raise
            finally:
                tracer.end[index] = clock()
                tracer._stack.pop()
                tracer._layers.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- patching

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (a class, module or instance) by a wrapper."""
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        original = own.get(attr, _MISSING)
        current = getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: {type(original).__name__}")
        wrapped = self.wrap(current, name, **kwargs)
        self._patches.append((owner, attr, original))
        _set(owner, attr, wrapped)

    def patch_function(self, module: Any, attr: str, name: str, **kwargs) -> None:
        """Wrap a module-level function everywhere it was imported by name."""
        fn = getattr(module, attr)
        wrapped = self.wrap(fn, name, **kwargs)
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", None) or "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                _set(owner, attr, original)

    # ------------------------------------------------------------- results

    def spans(self) -> List[Tuple[str, int, int, int]]:
        """Recorded spans as (name, start_ns, end_ns, parent_index)."""
        names = self._names
        return [(names[n], s, e, p) for n, s, e, p
                in zip(self.name_id, self.start, self.end, self.parent)]

    def summary(self) -> Dict[str, Any]:
        """Counters plus per-layer self seconds and named phase totals."""
        spans = self.spans()
        selfs = self_times([(s, e, p) for _, s, e, p in spans])
        layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        summarize_s = other_s = 0.0
        for (name, start, end, parent), own in zip(spans, selfs):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own / 1e9
            if name == "runtime.summarize":
                if parent < 0 or spans[parent][0] != "runtime.summarize":
                    summarize_s += (end - start) / 1e9
            elif layer == "runtime":
                other_s += own / 1e9
        counts = {key: int(self.counts.get(key, 0)) for key in COUNTS}
        return {
            "run_id": self.run_id,
            "spans": len(spans),
            "counts": counts,
            "self_s": layer_self,
            "root_s": sum((e - s) / 1e9 for _, s, e, p in spans if p == -1),
            "other_s": other_s,
            "summarize_s": summarize_s,
        }

    def write(self, path: str) -> None:
        """Write the recorded spans: ``path`` (arrays) + ``path.json`` (index)."""
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"run_id": self.run_id, "names": self._names,
                "count": len(self.start),
                "layout": ["name_id:l", "parent:l", "start_ns:q", "end_ns:q"]}
        with open(path + ".json", "w") as fh:
            json.dump(meta, fh)


def _set(owner: Any, attr: str, value: Any) -> None:
    # Classes and modules take setattr; frozen dataclass instances (the
    # registered scenarios) need the object-level setter.
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)


def self_times(spans: Sequence[Tuple[int, int, int]]) -> List[int]:
    """Self time of each (start, end, parent_index) span.

    A span's self time is its duration minus the union of its children's
    intervals clipped to the span, so overlapping or out-of-bounds
    children are never subtracted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


# ------------------------------------------------------------- the layers


def _count(key: str, amount: Callable[[tuple, Any], int] = lambda a, r: 1):
    def bump(counts: Counter, args: tuple, result: Any) -> None:
        counts[key] += amount(args, result)
    return bump


def _counts(*bumps):
    def bump(counts: Counter, args: tuple, result: Any) -> None:
        for one in bumps:
            one(counts, args, result)
    return bump


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every simulation layer.

    Call before the world is built so objects that cache bound methods
    pick up the wrappers.  Returns ``tracer`` for chaining.
    """
    from repro.analysis import classify, pipeline
    from repro.crypto import aead, kdf, stream
    from repro.crypto.backend import aead_impls, stream_cipher_impls
    from repro.gfw.firewall import GreatFirewall
    from repro.gfw.prober import ProberRunner
    from repro.net.host import Host
    from repro.net.network import Network
    from repro.net.sim import Simulator
    from repro.net.tcp import TcpConnection
    from repro.runtime import runner, scenario as scenario_mod
    from repro.shadowsocks import aead_session, client, server, stream_session
    from repro.workloads import httpgen, payloads

    # crypto: AEAD seal/open and stream-cipher keystream calls.  A stream
    # call made inside an AEAD call is part of that AEAD's work.
    crypto_in = _count("crypto.bytes", lambda a, r: _nbytes(a[2]) if len(a) > 2 else 0)
    for cls in aead_impls():
        tracer.patch(cls, "seal", "crypto.aead_seal",
                     count=_counts(_count("crypto.seal_calls"), crypto_in), nested="skip")
        tracer.patch(cls, "open", "crypto.aead_open",
                     count=_counts(_count("crypto.open_calls"), crypto_in),
                     on_error="crypto.open_failures", nested="skip")
    stream_bytes = _count("crypto.bytes", lambda a, r: _nbytes(a[1]) if len(a) > 1 else 0)
    for cls in stream_cipher_impls():
        for attr in ("process", "encrypt", "decrypt"):
            # Patch where the method is defined; subclasses share it.
            owner = next((k for k in cls.__mro__ if attr in vars(k)), None)
            if owner is not None:
                tracer.patch(owner, attr, "crypto.stream",
                             count=_counts(_count("crypto.stream_calls"), stream_bytes),
                             nested="skip")
    # Per-session key setup: subkey derivation and cipher construction.
    for module, attr in ((kdf, "derive_subkey"), (aead, "new_aead"),
                         (stream, "new_stream_cipher")):
        tracer.patch_function(module, attr, "crypto.key_setup", nested="skip")

    # The event loop books to runtime; it counts the simulated events.
    tracer.patch(Simulator, "run", "runtime.loop",
                 count=_count("net.events", lambda a, r: int(r or 0)))

    # net: segment routing, host delivery and the TCP entry points.
    tracer.patch(Network, "send_segment", "net.send_segment",
                 count=_count("net.segments"))
    tracer.patch(Network, "send_segment_burst", "net.send_burst",
                 count=_counts(
                     _count("net.bursts"),
                     _count("net.segments", lambda a, r: len(a[1].segments)),
                     _count("net.burst_segments", lambda a, r: len(a[1].segments))))
    tracer.patch(Host, "deliver", "net.deliver")
    tracer.patch(Host, "deliver_burst", "net.deliver_burst")
    for attr in ("open", "send", "close", "abort", "handle_segment", "handle_burst"):
        tracer.patch(TcpConnection, attr, "net.tcp", nested="skip")

    # gfw: the middlebox entry points and the prober.
    tracer.patch(GreatFirewall, "process", "gfw.process",
                 count=_count("gfw.segments_inspected"), nested="skip")
    tracer.patch(GreatFirewall, "process_burst", "gfw.process_burst",
                 count=_count("gfw.segments_inspected", lambda a, r: len(a[1])),
                 nested="skip")
    tracer.patch(ProberRunner, "send_probe", "gfw.send_probe",
                 count=_count("gfw.probes_sent"))

    # proxy: Shadowsocks server and client sessions (their data paths),
    # and session encryption/decryption.  The record counters count once
    # per record however the call is reached: a convenience entry that
    # calls another entry counts nothing itself.
    for attr in ("_on_data", "_proxy_remote_data"):
        tracer.patch(server.ServerSession, attr, "proxy.server")
    for attr in ("_on_data", "_on_data_run", "send"):
        tracer.patch(client.ClientSession, attr, "proxy.client")
    for cls in (aead_session.AeadEncryptor, stream_session.StreamEncryptor):
        tracer.patch(cls, "encrypt", "proxy.encrypt",
                     count=_count("proxy.records_encrypted"), nested="count")
    tracer.patch(aead_session.AeadDecryptor, "decrypt_available", "proxy.decrypt",
                 count=_count("proxy.records_decrypted", lambda a, r: len(r)),
                 nested="count")
    tracer.patch(stream_session.StreamDecryptor, "decrypt", "proxy.decrypt",
                 count=_count("proxy.records_decrypted"), nested="count")
    for attr in ("decrypt", "decrypt_run"):
        tracer.patch(aead_session.AeadDecryptor, attr, "proxy.decrypt", nested="skip")
    tracer.patch(stream_session.StreamDecryptor, "decrypt_run", "proxy.decrypt",
                 nested="skip")

    # workloads: payload and request generators.
    payload = _counts(_count("workloads.payload_calls"),
                      _count("workloads.payload_bytes", lambda a, r: _nbytes(r)))
    for module, attrs in ((payloads, ("random_payload", "payload_with_entropy")),
                          (httpgen, ("http_get_request", "tls_client_hello",
                                     "site_request"))):
        for attr in attrs:
            tracer.patch_function(module, attr, "workloads.generate",
                                  count=payload, nested="skip")

    # analysis: streaming analyzers and the probe classifier.
    stack = [pipeline.Analyzer]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "observe" in vars(cls):
            tracer.patch(cls, "observe", "analysis.observe",
                         count=_count("analysis.observe_calls"))
        if "finalize" in vars(cls):
            tracer.patch(cls, "finalize", "analysis.finalize")
    tracer.patch_function(classify, "classify_payload", "analysis.classify")

    # runtime: the whole run as the root span, and the summarize phase.
    tracer.patch_function(runner, "run_scenario", "runtime.run")
    tracer.patch(runner, "canonical_json", "runtime.summarize")
    for scenario in scenario_mod.all_scenarios():
        for attr in ("summarize", "events_of", "analysis_of"):
            if getattr(scenario, attr) is not None:
                tracer.patch(scenario, attr, "runtime.summarize")
    return tracer
