"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of polarscan from outside the library.
Each wrapped call records one span: name, start, end, parent span and the
benchmark repetition it belongs to. Spans stay in memory (flat typed
arrays) and are written out when the run ends. A layer's self time is its
spans' durations minus the time covered by their child spans.

A function bound into other modules with ``from .x import y`` is patched
under every name that refers to the same object, so ``scan.sat_add`` and
``kernels.sat_add`` are traced as well as ``arithmetic.sat_add``. A target
that a refactor removed is recorded as absent and skipped.
"""

import copy
import functools
import importlib
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute or Class.method)
TARGETS = (
    ("arithmetic.sat_add", "polarscan.arithmetic", "sat_add"),
    ("arithmetic.boxplus_minsum", "polarscan.arithmetic", "boxplus_minsum"),
    ("arithmetic.hard_sign", "polarscan.arithmetic", "hard_sign"),
    ("arithmetic.boxplus", "polarscan.arithmetic", "boxplus"),
    ("arithmetic.clamp", "polarscan.arithmetic", "clamp"),
    ("kernels.rate0", "polarscan.kernels", "rate0_update"),
    ("kernels.rate1", "polarscan.kernels", "rate1_update"),
    ("kernels.rep", "polarscan.kernels", "rep_update"),
    ("kernels.spc", "polarscan.kernels", "spc_update"),
    ("kernels.type1", "polarscan.kernels", "type1_update"),
    ("kernels.type3", "polarscan.kernels", "type3_update"),
    ("scan.decode", "polarscan.scan", "ScanDecoder.decode"),
    ("scan.init_messages", "polarscan.scan", "init_messages"),
    ("scan.finalize", "polarscan.scan", "finalize"),
    ("fastscan.decode", "polarscan.fastscan", "FastScanDecoder.decode"),
    ("sc.decode", "polarscan.sc", "sc_decode"),
    ("channel.modulate", "polarscan.channel", "modulate"),
    ("channel.noise_sigma", "polarscan.channel", "noise_sigma"),
    ("channel.channel_llrs", "polarscan.channel", "channel_llrs"),
    ("codes.encode", "polarscan.codes", "encode"),
    ("codes.insert_info", "polarscan.codes", "insert_info"),
    ("codes.extract_info", "polarscan.codes", "extract_info"),
    ("codes.butterfly_transform", "polarscan.codes", "butterfly_transform"),
    ("simulate.run", "polarscan.simulate", "run_sim"),
    ("simulate.run", "polarscan.simulate", "run_ppc_sim"),
    ("product.ppc_decode", "polarscan.product", "ppc_decode"),
    ("product.ppc_encode", "polarscan.product", "ppc_encode"),
    ("schedule.build", "polarscan.schedule", "build_schedule"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.outer = array("b")      # 1 when no enclosing span has the same name:
                                     # kernels.rep_update and type1_update recurse
        self.start = array("d")
        self.end = array("d")
        self.elems = array("q")      # elements of the returned array, 0 otherwise
        self._stack = [-1]
        self.call_id = 0
        self.off = False
        self.paused = 0.0
        self.absent = set()
        self._undo = []
        self.leaf_probe = []         # (decode s with leaf extrinsics, without) per call
        self.ppc_iters = []          # (iterations_used, half_iteration_pairs) per ppc_decode
        self.sim_chunks = 0

    def now(self):
        """Clock that stops while the tracer is paused."""
        return time.perf_counter() - self.paused

    @contextmanager
    def pause(self):
        """Run untraced; the paused interval is removed from every open span."""
        t0 = time.perf_counter()
        self.off = True
        try:
            yield
        finally:
            self.off = False
            self.paused += time.perf_counter() - t0

    def install(self):
        for span, modname, path in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            cls_name, _, attr = path.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.add(f"{span} ({modname}.{path})")
                continue
            wrapper = self._wrap(span, original)
            if cls_name:
                self._undo.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "polarscan" and not name.startswith("polarscan."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def remove(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            if value is None:
                delattr(obj, key)   # the method was inherited
            else:
                setattr(obj, key, value)

    def _span_id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    def _wrap(self, span, fn):
        sid = self._span_id(span)
        hook = HOOKS.get(span)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.off:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(sid)
            tr.parent.append(tr._stack[-1])
            tr.call.append(tr.call_id)
            tr._depth[sid] += 1
            tr.outer.append(tr._depth[sid] == 1)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.elems.append(0)
            tr._stack.append(idx)
            t0 = tr.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = tr.now()
                tr._stack.pop()
                tr._depth[sid] -= 1
                tr.start[idx] = t0
                tr.end[idx] = t1
            if isinstance(out, np.ndarray):
                tr.elems[idx] = out.size
            if hook is not None:
                hook(tr, args, kwargs, out)
            return out

        return traced

    def arrays(self):
        # copies: a live buffer view would stop the arrays from growing
        return {
            "name": np.array(memoryview(self.name), dtype=np.int32),
            "parent": np.array(memoryview(self.parent), dtype=np.int32),
            "call": np.array(memoryview(self.call), dtype=np.int32),
            "outer": np.array(memoryview(self.outer), dtype=np.int8).astype(bool),
            "start": np.array(memoryview(self.start), dtype=np.float64),
            "end": np.array(memoryview(self.end), dtype=np.float64),
            "elems": np.array(memoryview(self.elems), dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _leaf_replay_probe(tr, args, kwargs, out):
    """Time the same decode untraced with and without leaf extrinsics."""
    dec = args[0]
    llrs = args[1] if len(args) > 1 else kwargs["channel_llrs"]
    if not getattr(dec, "leaf_extrinsic", False):
        return
    twin = copy.copy(dec)
    twin.leaf_extrinsic = False
    decode = type(dec).decode
    with tr.pause():
        order = (dec, twin) if len(tr.leaf_probe) % 2 == 0 else (twin, dec)
        secs = {}
        for d in order:
            t0 = time.perf_counter()
            res = decode(d, llrs)
            np.asarray(res.leaf_extrinsic)
            secs[d is dec] = time.perf_counter() - t0
    tr.leaf_probe.append((secs[True], secs[False]))


def _ppc_iterations(tr, args, kwargs, out):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    if cfg is None:
        cfg = sys.modules["polarscan.product"].PpcConfig()
    tr.ppc_iters.append((np.asarray(out.iterations_used).ravel().copy(), cfg.half_iteration_pairs))


def _sim_chunks(tr, args, kwargs, out):
    chunk = kwargs.get("chunk_frames") or sys.modules["polarscan.simulate"].CHUNK_FRAMES
    tr.sim_chunks += sum(math.ceil(p.frames / chunk) for p in out.points)


HOOKS = {
    "fastscan.decode": _leaf_replay_probe,
    "product.ppc_decode": _ppc_iterations,
    "simulate.run": _sim_chunks,
}


def _inside(name, parent, sid):
    """Spans that are, or descend from, a span named ``sid``."""
    inside = [False] * len(name)
    for i, (n, p) in enumerate(zip(name.tolist(), parent.tolist())):
        inside[i] = n == sid or (p >= 0 and inside[p])   # parents precede children
    return np.array(inside, dtype=bool)


def layer_metrics(tr, traced_wall):
    """Per-layer metrics from the recorded spans and hook observations.

    Per span name: calls, inclusive s (outermost spans of that name), self_s
    and elems. Self time is duration minus the time of direct child spans.
    """
    a = tr.arrays()
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][nested], dur[nested])
    self_t = dur - child
    out = {}
    for sid, span in enumerate(tr.names):
        m = a["name"] == sid
        if not m.any():
            continue
        out[f"{span}.calls"] = int(m.sum())
        out[f"{span}.s"] = float(dur[m & a["outer"]].sum())
        out[f"{span}.self_s"] = float(self_t[m].sum())
        if a["elems"][m].any():
            out[f"{span}.elems"] = int(a["elems"][m].sum())
    arith = np.isin(a["name"], [i for i, s in enumerate(tr.names) if s.startswith("arithmetic.")])
    for dec in ("scan.decode", "fastscan.decode"):
        if out.get(f"{dec}.s"):
            inside = _inside(a["name"], a["parent"], tr.names.index(dec))
            out[f"{dec}.arithmetic_share"] = float(self_t[inside & arith].sum()) / out[f"{dec}.s"]
    channel = [k for k in out if k.startswith("channel.") and k.endswith(".calls")]
    if channel:
        out["channel.calls"] = sum(out[k] for k in channel)
        out["channel.s"] = sum(out[k[:-len("calls")] + "s"] for k in channel)
    if "simulate.run.self_s" in out:
        out["simulate.self_s"] = out["simulate.run.self_s"]
        out["simulate.chunks"] = tr.sim_chunks
    if tr.leaf_probe:
        on = sum(p[0] for p in tr.leaf_probe)
        off = sum(p[1] for p in tr.leaf_probe)
        out["fastscan.leaf_replay_s"] = on - off
        out["fastscan.leaf_replay_share"] = (on - off) / on
    if tr.ppc_iters:
        iters = np.concatenate([it for it, _ in tr.ppc_iters])
        cap = np.concatenate([np.full(it.size, pairs) for it, pairs in tr.ppc_iters])
        out["product.half_iter_pairs_mean"] = float(iters.mean())
        out["product.early_stop_frac"] = float((iters < cap).mean())
        out["product.active_row_frac"] = float(iters.sum() / cap.sum())
    out["trace.coverage"] = float(dur[~nested].sum()) / traced_wall
    out["trace.self_sum_s"] = float(self_t.sum())
    out["trace.wall_s"] = traced_wall
    out["trace.spans"] = len(tr.start)
    return out
