"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function at every place a module of
the package binds it (``canonical_key`` is bound in ``origami_core``,
``sl2_orbit``, ``enumeration``, ``cli`` and the package itself; functions of
``origami_core`` call it through their own module globals), so every call
goes through a wrapper that records a span: name, start, end and parent.
Spans live in one list; ``report`` derives per-layer calls, busy time
and self time (busy minus the time of child spans), plus a few counts taken
at the same boundaries.  Nothing in the package changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute path) of every traced function, in layer order
SPANS = (
    ("origami_core", "canonical_key"),
    ("origami_core", "is_primitive"),
    ("origami_core", "cylinder_decomposition"),
    ("origami_core", "build_two_cylinder"),
    ("origami_core", "build_one_cylinder"),
    ("origami_core", "key_from_text"),
    ("sl2_orbit", "orbit"),
    ("sl2_orbit", "apply_T"),
    ("sl2_orbit", "apply_S"),
    ("sl2_orbit", "orbit_to_json"),
    ("sl2_orbit", "orbit_from_json"),
    ("sl2_orbit", "validate_orbit"),
    ("sl2_orbit", "membership"),
    ("congruence", "noncongruence_search"),
    ("congruence", "verify_certificate"),
    ("enumeration", "enumerate_primitive"),
    ("enumeration", "classify"),
    ("cli", "OrbitCache.get"),
    ("cli", "OrbitCache.put"),
    ("cli", "cached_orbit"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in SPANS)

# derived metrics: (name, unit, better)
DERIVED = (
    ("origami_core.canonical_key.us_per_call", "us", "lower"),
    ("sl2_orbit.orbit.surfaces", "count", "higher"),
    ("sl2_orbit.keys_per_surface", "ratio", "lower"),
    ("sl2_orbit.orbit.key_share", "ratio", "lower"),
    ("sl2_orbit.orbit.s_per_call", "s", "lower"),
    ("congruence.scan_position", "position", "lower"),
    ("enumeration.keys_per_candidate", "ratio", "higher"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.cache.s_per_hit", "s", "lower"),
    ("cli.cache.bytes_written", "B", "lower"),
    ("cli.cache.bytes_read", "B", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def catalog() -> list:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + list(DERIVED)


class Tracer:
    def __init__(self):
        self.records = []  # one (span id, parent record index, start, end) per call
        self.stack = []  # indices of the open records
        self.hit = {}  # record index of an OrbitCache.get -> returned an orbit
        self.counts = {"surfaces": 0, "distinct_keys": 0, "bytes_written": 0, "bytes_read": 0}
        self.positions = []
        self.hook_errors = 0  # counts a hook could not take from a changed return value
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self, package: str = "origami_h2") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for nid, (mod, path) in enumerate(SPANS):
            owner = sys.modules.get(f"{package}.{mod}")
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # the layer no longer has this function
            wrapper = self._wrap(nid, original, getattr(self, f"_after_{attr}", None))
            if outer:
                self._bind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, name, original, wrapper)

    def _bind(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, nid, fn, after):
        clock = time.perf_counter
        records, stack = self.records, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(records)
            records.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    try:
                        after(idx, args, result)
                    except (AttributeError, TypeError, ValueError, ImportError):
                        self.hook_errors += 1
                return result
            finally:
                end = clock()
                stack.pop()
                records[idx] = (nid, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    # -- counts taken at the span boundaries ---------------------------------

    def _after_orbit(self, idx, args, result):
        self.counts["surfaces"] += len(result.surfaces)

    def _after_enumerate_primitive(self, idx, args, result):
        self.counts["distinct_keys"] += len(result)

    def _after_noncongruence_search(self, idx, args, result):
        if result is not None:
            self.positions.append(args[0].surfaces.index(result.surface) + 1)

    def _after_get(self, idx, args, result):
        cache, lookup_key = args
        self.hit[idx] = result is not None
        self.counts["bytes_read"] += _manifest_bytes(cache, lookup_key)

    def _after_put(self, idx, args, result):
        cache, orb = args[0], args[1]
        self.counts["bytes_written"] += _manifest_bytes(cache, orb.base_key)

    # -- aggregation ----------------------------------------------------------

    def report(self, untraced_wall: float, traced_wall: float) -> dict:
        records = self.records
        kind = [r[0] for r in records]
        parent = [r[1] for r in records]
        child = [0.0] * len(records)
        for nid, p, start, end in records:
            if p >= 0:
                child[p] += end - start
        k = len(SPAN_NAMES)
        calls, busy, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i, (nid, p, start, end) in enumerate(records):
            calls[nid] += 1
            if not _under(parent, kind, i, nid):  # a recursive call is already in busy
                busy[nid] += end - start
            self_s[nid] += end - start - child[i]

        ids = {name: nid for nid, name in enumerate(SPAN_NAMES)}
        key_id, orbit_id = ids["origami_core.canonical_key"], ids["sl2_orbit.orbit"]
        enum_id = ids["enumeration.enumerate_primitive"]
        builders = {ids["origami_core.build_two_cylinder"], ids["origami_core.build_one_cylinder"]}
        keys_in_orbit, key_s_in_orbit, built_in_enum = 0, 0.0, 0
        for i, (nid, p, start, end) in enumerate(records):
            if nid == key_id and _under(parent, kind, i, orbit_id):
                keys_in_orbit += 1
                key_s_in_orbit += end - start
            elif nid in builders and _under(parent, kind, i, enum_id):
                built_in_enum += 1
        get_id = ids["cli.OrbitCache.get"]
        hits = [i for i, h in self.hit.items() if h]
        hit_s = sum(records[i][3] - records[i][2] for i in hits)

        metrics = {}
        for nid, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = calls[nid]
            metrics[f"{name}.busy_s"] = busy[nid]
            metrics[f"{name}.self_s"] = self_s[nid]
        c = self.counts
        metrics.update({
            "origami_core.canonical_key.us_per_call": _ratio(busy[key_id] * 1e6, calls[key_id]),
            "sl2_orbit.orbit.surfaces": c["surfaces"],
            "sl2_orbit.keys_per_surface": _ratio(keys_in_orbit, c["surfaces"]),
            "sl2_orbit.orbit.key_share": _ratio(key_s_in_orbit, busy[orbit_id]),
            "sl2_orbit.orbit.s_per_call": _ratio(busy[orbit_id], calls[orbit_id]),
            "congruence.scan_position": _ratio(sum(self.positions), len(self.positions)),
            "enumeration.keys_per_candidate": _ratio(c["distinct_keys"], built_in_enum),
            "cli.cache.hit_ratio": _ratio(len(hits), calls[get_id]),
            "cli.cache.s_per_hit": _ratio(hit_s, len(hits)),
            "cli.cache.bytes_written": c["bytes_written"],
            "cli.cache.bytes_read": c["bytes_read"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        return metrics


def _under(parent, kind, i, ancestor_kind) -> bool:
    p = parent[i]
    while p >= 0:
        if kind[p] == ancestor_kind:
            return True
        p = parent[p]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _manifest_bytes(cache, key: bytes) -> int:
    """Bytes of the manifest plus the orbit file it maps ``key`` to.

    ``OrbitCache.get`` reads the manifest and, when the key is listed, that
    orbit file; ``put`` writes both.  Sizes are taken from the files.
    """
    from origami_h2.origami_core import key_to_text

    root = Path(cache.root)
    manifest = root / "manifest.json"
    try:
        size = manifest.stat().st_size
        entry = json.loads(manifest.read_text())["entries"].get(key_to_text(key))
    except (OSError, ValueError, KeyError, AttributeError):
        return 0
    if entry is not None:
        try:
            size += (root / entry["orbit_file"]).stat().st_size
        except (OSError, TypeError, KeyError):
            pass
    return size
