"""Outside-in per-layer tracing of the treebundles modules.

The library is not edited. For each traced function the tracer swaps a
timing wrapper into every `treebundles` module namespace that binds the
function object: from-imports copy the reference, so `h0` alone is bound in
`bundle`, `specialize`, `cli` and the package root, and wrapping only its
home module would miss the calls made from the others.

A span is (span id, name, start, end, parent span id, case id). Spans are
kept in memory and written out once the run is over. Self time is a span's
duration minus the time its child spans cover. The counting the wrappers do
(h0 columns, distinct h0 inputs, box entries) is timed separately and
taken out of the enclosing span, so it does not inflate any layer's self
time.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# span name -> (home module, function names); one span name may cover
# several functions, as serialize.load does
TARGETS = {
    "cli.main": ("cli", ("main",)),
    "serialize.load": ("serialize", ("bundle_from_json", "certificate_from_json")),
    "serialize.emit": ("serialize", ("dumps", "certificate_to_json")),
    "specialize.decide": ("specialize", ("decide",)),
    "specialize.certify": ("specialize", ("certify",)),
    "specialize.find_line_subbundle": ("specialize", ("find_line_subbundle",)),
    "specialize.verify_certificate": ("specialize", ("verify_certificate",)),
    "subbundles.saturate": ("subbundles", ("saturate",)),
    "subbundles.quotient_bundle": ("subbundles", ("quotient_bundle",)),
    "bundle.h0": ("bundle", ("h0",)),
    "bundle.twist": ("bundle", ("twist",)),
    "bundle.dmax": ("bundle", ("dmax",)),
    "bundle.clamp_box": ("bundle", ("clamp_box",)),
    "bundle.section_basis": ("bundle", ("section_basis",)),
    "linalg.bareiss_rank": ("linalg", ("bareiss_rank",)),
    "linalg.modular_rank": ("linalg", ("modular_rank",)),
    "linalg.matrix_rank_over": ("linalg", ("matrix_rank_over",)),
    "linalg.kernel_basis": ("linalg", ("kernel_basis",)),
    "linalg.invert_matrix": ("linalg", ("invert_matrix",)),
}

class _Frame:
    """An open span: its id and the time its children have covered."""
    __slots__ = ("sid", "child", "box_ids", "box_refs", "box_twist")

    def __init__(self, sid):
        self.sid = sid
        self.child = 0.0
        self.box_ids = None
        self.box_refs = None
        self.box_twist = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_sid = 0
        self.case = None          # spans are recorded only while a case runs
        self.case_field = None
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.missing = []
        self.case_self = {}       # case id -> summed self time of its spans
        self.case_book = {}       # case id -> time spent counting
        self.h0_columns = 0
        self.h0_distinct = 0
        self.box_entries = 0
        self.box_probes = 0
        self.q_generic_calls = 0
        self._case_keys = set()
        self._case_curves = {}
        self._curve_index = {}
        self._installed = []

    # -- installation ---------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "treebundles"
                                      or name.startswith("treebundles."))]
        for span, (home, fnames) in TARGETS.items():
            home_mod = sys.modules["treebundles." + home]
            for fname in fnames:
                orig = getattr(home_mod, fname, None)
                if orig is None:
                    self.missing.append("%s.%s" % (home, fname))
                    continue
                wrapper = self._wrap(span, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed = []

    # -- cases ------------------------------------------------------------

    def begin_case(self, case_id, field):
        self.case = case_id
        self.case_field = field
        self.case_self[case_id] = 0.0
        self.case_book[case_id] = 0.0

    def end_case(self):
        self.case = None
        self.h0_distinct += len(self._case_keys)
        self._case_keys = set()
        self._case_curves = {}
        self._curve_index = {}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        clock = time.perf_counter
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            case = self.case
            if case is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            tb = clock()
            if pre is not None:
                pre(parent, args)
            frame = _Frame(self.next_sid)
            self.next_sid += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame.child
                self.case_self[case] += dur - frame.child
                self.spans.append((frame.sid, name, t0, t1,
                                   parent.sid if parent else -1, case))
            if post is not None:
                post(parent, args, result)
            t2 = clock()
            self.case_book[case] += (t0 - tb) + (t2 - t1)
            if parent is not None:
                parent.child += t2 - tb
            return result

        return wrapper

    def _pre_bundle_h0(self, parent, args):
        bundle = args[0]
        spl = bundle.splittings
        self.h0_columns += sum(m + 1 for ds in spl.values() for m in ds if m >= 0)
        curve = bundle.curve
        known = self._case_curves.get(id(curve))
        if known is None:
            # equal curves share one index; holding the curve keeps its id
            # from being reused within the case
            index = self._curve_index.setdefault(curve, len(self._curve_index))
            known = self._case_curves[id(curve)] = (index, curve)
        self._case_keys.add((known[0], tuple(spl.values()),
                             tuple(tuple(row) for m in bundle.gluings.values()
                                   for row in m)))
        if parent is not None and parent.box_twist is not None:
            if parent.box_twist == id(bundle):
                self.box_probes += 1
            parent.box_twist = None

    def _post_bundle_twist(self, parent, args, result):
        if parent is not None and parent.box_ids is not None:
            parent.box_twist = id(result) if id(args[1]) in parent.box_ids else None

    def _post_bundle_clamp_box(self, parent, args, result):
        self.box_entries += len(result)
        if parent is not None:
            if parent.box_ids is None:
                parent.box_ids, parent.box_refs = set(), []
            # the parent holds the entries until it ends, so their ids stay
            # unique while twists of them are being matched
            parent.box_refs.append(result)
            parent.box_ids.update(id(md) for md in result)

    def _pre_linalg_matrix_rank_over(self, parent, args):
        if self.case_field == "q":
            self.q_generic_calls += 1

    # -- results ------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in TARGETS:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        h0_calls = self.calls["bundle.h0"]
        out["bundle.h0.columns"] = (self.h0_columns, "count")
        out["bundle.h0.distinct_ratio"] = (
            self.h0_distinct / h0_calls if h0_calls else 0.0, "ratio")
        out["bundle.clamp_box.entries"] = (self.box_entries, "count")
        out["bundle.clamp_box.probe_ratio"] = (
            self.box_probes / self.box_entries if self.box_entries else 0.0,
            "ratio")
        out["linalg.generic_route_ratio"] = (
            self.calls["linalg.matrix_rank_over"] / h0_calls if h0_calls else 0.0,
            "ratio")
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["sid", "name", "start", "end",
                                            "parent", "case"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
