"""In-memory span tracing of crossview's public functions.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start, end, parent span and the request it served. :func:`installed`
swaps each target function for a recording wrapper at every module
attribute that points at it (``crossview.unet.conv2d`` and
``crossview.engine.conv2d`` are the same function, and callers resolve it
through their own module's globals), and puts every original back on exit,
also when the traced code raises.

Counts are taken at the same boundaries from argument shapes and return
values, so they repeat exactly for the same code and inputs: computed
GFLOP of convolutions and matrix products, bytes written by ``tensorio``,
gradient-store size of ``backward`` and the unmasked-token share of the
geometry warps.

The tracer keeps one call stack, so the traced code must run on one
thread; the benchmark passes no thread pool to crossview.
"""

import functools
import importlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "TARGETS", "installed", "summarize", "union_length"]


def _shape(x):
    return tuple(np.shape(x.data if hasattr(x, "data") else x))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _conv_gflop(args, kwargs, out):
    """2 * outputs * Cin * kernel volume, from the input and kernel shapes."""
    x = _shape(_arg(args, kwargs, 0, "x"))
    k = _shape(_arg(args, kwargs, 1, "kernel"))
    nsp = len(k) - 2
    batch = x[0] if len(x) == nsp + 2 else 1
    positions = math.prod(x[-nsp:])
    return {"gflop": 2.0 * batch * positions * math.prod(k) / 1e9}


def _matmul_gflop(args, kwargs, out):
    a = _shape(_arg(args, kwargs, 0, "a"))
    b = _shape(_arg(args, kwargs, 1, "b"))
    m = a[-2] if len(a) > 1 else 1
    n = b[-1] if len(b) > 1 else 1
    lead = np.broadcast_shapes(a[:-2], b[:-2])
    return {"gflop": 2.0 * math.prod(lead) * m * a[-1] * n / 1e9}


def _backward_nodes(args, kwargs, out):
    return {"nodes": len(out)}


def _mask_share(args, kwargs, out):
    mask = np.asarray(out.mask)
    return {"valid": float(mask.sum()), "tokens": float(mask.size)}


def _tensor_bytes(args, kwargs, out):
    return {"mb": os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6}


def _checkpoint_bytes(args, kwargs, out):
    # File layout per crossview.tensorio: one ``<name>.ndt`` per tensor plus
    # ``manifest.txt``.
    dirpath = _arg(args, kwargs, 0, "dirpath")
    names = [n + ".ndt" for n in _arg(args, kwargs, 1, "tensors")] + ["manifest.txt"]
    return {"mb": sum(os.path.getsize(os.path.join(dirpath, n)) for n in names) / 1e6}


# (span name, defining module, attribute path, count function or None)
TARGETS = [
    ("engine.conv2d", "crossview.engine", "conv2d", _conv_gflop),
    ("engine.conv3d", "crossview.engine", "conv3d", _conv_gflop),
    ("engine.matmul", "crossview.engine", "matmul", _matmul_gflop),
    ("engine.softmax", "crossview.engine", "softmax", None),
    ("engine.trilinear_sample3d", "crossview.engine", "trilinear_sample3d", None),
    ("engine.backward", "crossview.engine", "backward", _backward_nodes),
    ("geometry.unproject_features", "crossview.geometry", "unproject_features", _mask_share),
    ("geometry.warp_to_frustum", "crossview.geometry", "warp_to_frustum", _mask_share),
    ("block.block_forward_all", "crossview.block", "block_forward_all", None),
    ("block.view_aggregate", "crossview.block", "view_aggregate", None),
    ("block.ray_aggregate", "crossview.block", "ray_aggregate", None),
    ("unet.multiview_forward", "crossview.unet", "multiview_forward", None),
    ("unet.forward_batch", "crossview.unet", "forward_batch", None),
    ("unet.conditioning_embedding", "crossview.unet", "conditioning_embedding", None),
    ("diffusion.sample_multiview", "crossview.diffusion", "sample_multiview", None),
    ("diffusion.ddim_step", "crossview.diffusion", "ddim_step", None),
    ("diffusion.multiview_loss", "crossview.diffusion", "multiview_loss", None),
    ("optim.AdamW.step", "crossview.optim", "AdamW.step", None),
    ("synthdata.load_object", "crossview.synthdata", "DatasetReader.load_object", None),
    ("synthdata.latent_decode", "crossview.synthdata", "latent_decode", None),
    ("metrics.ssim", "crossview.metrics", "ssim", None),
    ("metrics.ms_ssim", "crossview.metrics", "ms_ssim", None),
    ("metrics.reprojection_consistency", "crossview.metrics", "reprojection_consistency", None),
    ("tensorio.save_tensor", "crossview.tensorio", "save_tensor", _tensor_bytes),
    ("tensorio.save_checkpoint", "crossview.tensorio", "save_checkpoint", _checkpoint_bytes),
    ("tensorio.load_checkpoint", "crossview.tensorio", "load_checkpoint", None),
    ("train.load_model", "crossview.train", "load_model", None),
    ("train.write_generated", "crossview.train", "write_generated", None),
]


class Tracer:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.requests = []
        self.request = None  # id stamped on spans opened from now on
        self.counts = {}  # (span name, count name) -> total
        self.failures = {}  # span name -> calls that raised
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span; a call that raises is counted as failed."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            self.ends[idx] = self.clock()
            self._stack.pop()
            if not ok:
                self.failures[name] = self.failures.get(name, 0) + 1
        if count is not None:
            for key, value in count(args, kwargs, out).items():
                self.counts[(name, key)] = self.counts.get((name, key), 0.0) + value
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "request": self.requests[i],
                }) + "\n")


def _wrapper(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


@contextmanager
def installed(tracer, targets=TARGETS, modules=None):
    """Wrap every target for the duration of the ``with`` block.

    A plain function is replaced in every module of ``modules`` (default:
    the loaded ``crossview`` modules) whose attribute is the original
    object; ``Class.method`` targets are replaced on the class. Originals
    are restored in reverse order.
    """
    owners = [importlib.import_module(modname) for _, modname, _, _ in targets]
    if modules is None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "crossview" or k.startswith("crossview.")]
    patches = []
    try:
        for (name, _, attr, count), owner in zip(targets, owners):
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf] if path else getattr(owner, leaf)
            wrapped = _wrapper(tracer, name, original, count)
            if path:
                patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(tracer):
    """Per span name: busy ``s``, ``self_s``, ``calls`` and ``failed``.

    Busy time is the union of the name's spans, so a function nested in
    itself is not counted twice. Self time of a span is its duration minus
    the part of its interval that its children cover, clipped to the span.
    """
    children = {}
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)
    out = {}
    for name, idxs in by_name.items():
        spans = [(tracer.starts[i], tracer.ends[i]) for i in idxs]
        self_s = 0.0
        for i, (lo, hi) in zip(idxs, spans):
            kids = [
                (max(lo, tracer.starts[k]), min(hi, tracer.ends[k]))
                for k in children.get(i, ())
            ]
            self_s += (hi - lo) - union_length([(a, b) for a, b in kids if b > a])
        out[name] = {
            "s": union_length(spans),
            "self_s": self_s,
            "calls": len(idxs),
            "failed": tracer.failures.get(name, 0),
        }
    return out
