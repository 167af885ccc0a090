"""Spans around the calls into each vaxcred layer, for the traced run only.

``Tracer.install()`` wraps every public function and method defined in a
layer module, where callers look it up: each ``vaxcred.*`` module
attribute bound to the function (modules import names from each other),
and the class attribute for methods. ``os.fsync`` and
``socket.create_connection`` are wrapped too, as ``registry.fsync`` and
``service.connect``. ``uninstall()`` restores every original binding.

A span is (id, parent id, operation id, name index, start ns, end ns, ok).
Spans stay in memory until ``write()``. Server-thread spans are joined to
the client span of their request by the request bytes; that join map is
never written out.
"""

from __future__ import annotations

import enum
import functools
import importlib
import itertools
import math
import os
import socket
import threading
import time

LAYERS = (
    "canonical", "crypto", "merkle", "coupons", "registry", "credentials",
    "vaccination", "wallet", "verification", "groupverify", "health", "qr",
    "service", "scenario",
)

# span names that differ from "<layer>.<qualname>", where the metric name
# is a role rather than a function
RENAMES = {
    "service.SigningClient.sign_badge_request": "service.round_trip",
    "service.handle_request_bytes": "service.handle",
}


def _public_callables(module):
    """(owner, attribute, function, kind) for each public function and
    method defined in ``module``; kind is None, "class" or "static"."""
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if callable(value) and getattr(value, "__module__", None) == module.__name__:
            if isinstance(value, type):
                if issubclass(value, (enum.Enum, BaseException)):
                    continue
                for attr, member in vars(value).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, classmethod):
                        yield value, attr, member.__func__, "class"
                    elif isinstance(member, staticmethod):
                        yield value, attr, member.__func__, "static"
                    elif callable(member) and hasattr(member, "__code__"):
                        yield value, attr, member, None
            elif hasattr(value, "__code__"):
                yield module, name, value, None


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._join = {}  # request bytes -> (client span id, operation id)
        self._patches = []  # (owner, attribute, original binding)
        self.retries = 0  # mark_used calls answered as a recognised retry
        self.request_bytes = []  # size of each signing request

    def begin_op(self, op_id: int) -> None:
        """Tag the spans this thread records from now on with ``op_id``."""
        self._local.op = op_id

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        index = len(self.names)
        self.names.append(name)
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = getattr(local, "span", 0)
            outer_op = getattr(local, "op", -1)
            parent, op = outer, outer_op
            if pre is not None:
                parent, op = pre(args, parent, op)
                local.op = op
            sid = next(ids)
            local.span = sid
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                local.span = outer
                local.op = outer_op
                spans.append((sid, parent, op, index, t0, t1, ok))
            if post is not None:
                post(result, parent, op)
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, extra=()) -> None:
        """Wrap the layers, plus ``extra`` (owner, attribute, span name)
        triples naming the benchmark's own functions."""
        modules = [importlib.import_module(f"vaxcred.{layer}") for layer in LAYERS]
        hooks = {
            "service.encode_request": {"post": self._remember_request},
            "service.handle": {"pre": self._join_request},
            "registry.Registry.mark_used": {"post": self._count_retry},
        }
        wrapped = {}  # id(original function) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for owner, attr, fn, kind in list(_public_callables(module)):
                name = f"{layer}.{fn.__qualname__}"
                name = RENAMES.get(name, name)
                wrapper = self._wrap(name, fn, **hooks.get(name, {}))
                wrapped[id(fn)] = wrapper
                if kind == "class":
                    wrapper = classmethod(wrapper)
                elif kind == "static":
                    wrapper = staticmethod(wrapper)
                self._patch(owner, attr, wrapper)
        # names other modules (and the package) imported from a layer
        for module in [importlib.import_module("vaxcred")] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patch(module, attr, wrapped[id(value)])
        for owner, attr, name in extra:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._patch(os, "fsync", self._wrap("registry.fsync", os.fsync))
        self._patch(
            socket, "create_connection",
            self._wrap("service.connect", socket.create_connection),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._join.clear()

    # -- hooks ----------------------------------------------------------------

    def _remember_request(self, request, parent, op) -> None:
        self._join[request] = (parent, op)
        self.request_bytes.append(len(request))

    def _join_request(self, args, parent, op):
        return self._join.pop(args[1], (parent, op))

    def _count_retry(self, moved, parent, op) -> None:
        if moved is False:
            self.retries += 1

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Every span as one tab-separated line, times in ns from the first."""
        base = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tok\n")
            for sid, parent, op, index, t0, t1, ok in self.spans:
                fh.write(
                    f"{sid}\t{parent}\t{op}\t{self.names[index]}\t"
                    f"{t0 - base}\t{t1 - base}\t{int(ok)}\n"
                )


# -- per-layer metrics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def _covered(t0, t1, children) -> int:
    """ns of [t0, t1) covered by the union of the children's intervals."""
    total, end = 0, t0
    for c0, c1 in sorted((max(c[4], t0), min(c[5], t1)) for c in children):
        if c1 <= end:
            continue
        total += c1 - max(c0, end)
        end = c1
    return total


def analyse(tracer: Tracer, ops: int, log_bytes: int, floor_ratio: float,
            overhead_ratio: float) -> dict:
    """Every per-layer metric by name. Spans of the timed phase (operation
    id >= 0) count per operation; ``ops`` is the number of operations
    (users on lifecycle). Set-up spans feed only the per-coupon costs.
    ``floor_ratio`` and ``overhead_ratio`` are measured unwrapped, by
    run.py, and passed through."""
    children = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append(span)
    calls, fails, self_ns, dur_ms = {}, {}, {}, {}
    all_dur_ns, all_calls = {}, {}
    transport_ms, batch_coupons = [], 0
    for span in tracer.spans:
        sid, _, op, index, t0, t1, ok = span
        name = tracer.names[index]
        kids = children.get(sid, ())
        all_dur_ns[name] = all_dur_ns.get(name, 0) + (t1 - t0)
        all_calls[name] = all_calls.get(name, 0) + 1
        if name == "coupons.issue_coupon_batch":
            batch_coupons += sum(
                tracer.names[k[3]] == "registry.Registry.register" for k in kids
            )
        if op < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        fails[name] = fails.get(name, 0) + (not ok)
        self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - _covered(t0, t1, kids)
        dur_ms.setdefault(name, []).append((t1 - t0) / 1e6)
        if name == "service.round_trip":
            handled = [k for k in kids if tracer.names[k[3]] == "service.handle"]
            if handled:
                transport_ms.append((t1 - t0 - (handled[0][5] - handled[0][4])) / 1e6)

    per_op = max(ops, 1)

    def ratio(a, b):
        return a / b if b else 0.0

    def p50(name):
        return percentile(dur_ms.get(name, ()), 0.50)

    out = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        n_calls = sum(calls[n] for n in names)
        out[f"{layer}.calls_per_op"] = n_calls / per_op
        out[f"{layer}.self_ms_per_op"] = sum(self_ns[n] for n in names) / 1e6 / per_op
        out[f"{layer}.failed_ratio"] = ratio(sum(fails[n] for n in names), n_calls)
    reports = calls.get("health.split_shares", 0)
    out.update({
        "canonical.encode.calls_per_op": calls.get("canonical.encode", 0) / per_op,
        "canonical.decode.calls_per_op": calls.get("canonical.decode", 0) / per_op,
        "crypto.sha256.calls_per_op": calls.get("crypto.sha256", 0) / per_op,
        "crypto.verify.calls_per_op": calls.get("crypto.verify", 0) / per_op,
        "crypto.verify.self_ms_per_op": self_ns.get("crypto.verify", 0) / 1e6 / per_op,
        "verification.verify_floor_ratio": floor_ratio,
        "qr.decode_qr.ms_p50": p50("qr.decode_qr"),
        "merkle.verify_disclosure.ms_p50": p50("merkle.verify_disclosure"),
        "groupverify.round_trip.ms_p50": p50("bench.gate_round_trip"),
        "registry.mark_used.ms_p50": p50("registry.Registry.mark_used"),
        "registry.mark_used.ms_p99":
            percentile(dur_ms.get("registry.Registry.mark_used", ()), 0.99),
        "registry.fsync.calls_per_dose": calls.get("registry.fsync", 0) / per_op,
        "registry.fsync.ms_p50": p50("registry.fsync"),
        "registry.log_bytes_per_dose": log_bytes / per_op,
        "registry.retry_ratio":
            ratio(tracer.retries, calls.get("registry.Registry.mark_used", 0)),
        "registry.register.ms_per_coupon": ratio(
            all_dur_ns.get("registry.Registry.register", 0) / 1e6,
            all_calls.get("registry.Registry.register", 0),
        ),
        "coupons.issue_coupon_batch.ms_per_coupon": ratio(
            all_dur_ns.get("coupons.issue_coupon_batch", 0) / 1e6, batch_coupons
        ),
        "service.round_trip.ms_p50": p50("service.round_trip"),
        "service.handle.ms_p50": p50("service.handle"),
        "service.transport.ms_p50": percentile(transport_ms, 0.50),
        "service.connects_per_dose":
            ratio(calls.get("service.connect", 0), calls.get("service.round_trip", 0)),
        "service.request_bytes": ratio(sum(tracer.request_bytes), len(tracer.request_bytes)),
        "vaccination.sign_badge_request.self_ms": ratio(
            self_ns.get("vaccination.BadgeIssuer.sign_badge_request", 0) / 1e6,
            calls.get("vaccination.BadgeIssuer.sign_badge_request", 0),
        ),
        "vaccination.pharmacy_admit.ms_p50": p50("vaccination.pharmacy_admit"),
        "coupons.distribute.ms_per_call": ratio(
            sum(dur_ms.get("coupons.DistributorBatch.distribute", ())),
            calls.get("coupons.DistributorBatch.distribute", 0),
        ),
        "health.split_shares.ms_per_report":
            ratio(sum(dur_ms.get("health.split_shares", ())), reports),
        "health.accumulate.ms_per_report":
            ratio(sum(dur_ms.get("health.AggServer.accumulate", ())), reports),
        "trace.overhead_ratio": overhead_ratio,
    })
    return out
