"""In-memory spans around pwseg's public functions, with executed-work counters.

The benchmark never edits the engine.  It replaces, for the duration of a
traced pass, the module attributes through which pwseg's layers call each
other (``network.jlc_forward``, ``pwa.grouped_attention``, ``jlc.conv3d``,
``sdkt.gram`` ...) with wrappers that record one span per call:

    name, resolution tag, start, end, parent span, op id, thread,
    executed multiplies, computed bytes

Multiplies and bytes are computed from the shapes of the real call, so they
repeat exactly from run to run.  Bytes are the compulsory traffic (inputs +
outputs + parameters, at their stored dtype), labelled "computed" because no
hardware counter is read.  Spans stay in memory until the run writes them
out; self time is derived afterwards.

Calls made directly by ``network.forward`` are also grouped by their
position in the forward pass (stem, per-stage conv and attention blocks,
fusion, downsampling, decoder levels, head): a group span opens at the first
call that belongs to a new group and closes when the next group opens, so
untraced glue (residual adds, concatenations) is charged to the group it
sits in.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from typing import Callable

import numpy as np


class Span:
    __slots__ = ("sid", "name", "tag", "kind", "start", "end", "parent", "op", "thread", "mults", "nbytes", "ident")

    def __init__(self, sid, name, tag, kind, start, parent, op, thread):
        self.sid = sid
        self.name = name
        self.tag = tag
        self.kind = kind
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.mults = 0
        self.nbytes = 0
        self.ident = None  # identity of the input, where distinct inputs are counted

    @property
    def key(self) -> str:
        return f"{self.name}.{self.tag}" if self.tag else self.name

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records spans per thread; each thread keeps its own stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, tag: str = "", kind: str = "call", op=None) -> Span:
        st = self.stack()
        parent = st[-1] if st else None
        span = Span(
            next(self._ids), name, tag, kind, self.clock(),
            parent.sid if parent else None,
            op if parent is None else parent.op,
            threading.get_ident(),
        )
        st.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` and any span still open inside it."""
        st = self.stack()
        now = self.clock()
        while st:
            top = st.pop()
            top.end = now
            if top is span:
                return
        raise RuntimeError(f"span {span.name} is not open on this thread")

    @contextmanager
    def op(self, op_id):
        span = self.open("op", kind="op", op=op_id)
        try:
            yield span
        finally:
            self.close(span)


# ---------------------------------------------------------------------------
# Executed work from call shapes.  Each function maps (args, result) to
# (multiplies, bytes).  Multiplies count products as the code writes them.


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _conv_work(args, out):
    x, p = args[0], args[1]
    n = prod(out.shape[1:])
    mults = n * p.c_out * (p.c_in // p.groups) * p.kernel**3
    return mults, _nbytes(x, out, p.weight, p.bias)


def _downsample_work(args, out):
    x, p = args[0], args[1]
    n_out = prod(out.shape[1:])
    return n_out * p.c_out * p.c_in * p.stride**3, _nbytes(x, out, p.weight, p.bias)


def _gelu_work(args, out):
    # 0.5*x*(1 + tanh(c*(x + 0.044715*x*x*x))): six products per element
    return 6 * out.size, _nbytes(args[0], out)


def _norm_work(args, out):
    # squared deviation, normalising division, scale: three per element
    return 3 * out.size, _nbytes(args[0], out, args[1], args[2])


def _move_work(args, out):
    return 0, _nbytes(args[0], out)


def _gather_work(args, out):
    return 0, _nbytes(*args[0], out)


def _scatter_work(args, outs):
    return 0, _nbytes(args[0], *outs)


def _attention_work(args, out):
    q, k, v, bias = args[:4]
    n, heads, c_hat, tokens = q.shape
    # logits q^T k and the weighted sum of values: two T x T x c_hat products
    return 2 * n * heads * tokens * tokens * c_hat, _nbytes(q, k, v, np.asarray(bias), out)


def _read_work(args, out):
    return 0, _nbytes(out)


def _write_work(args, out):
    return 0, _nbytes(np.asarray(args[1]))


def _gram_work(args, out):
    x = np.asarray(args[0])
    c = x.shape[0]
    return c * c * (x.size // c), _nbytes(x, out)


def _grad_work(args, out):
    # the gradient's own product (C x C) @ (C x N); its Gram calls are children
    c = out.shape[0]
    return c * c * (out.size // c), _nbytes(np.asarray(args[0]), out)


def _mad_work(args, out):
    l = args[0].weights.shape[0]
    # squared coordinate deltas (3), spacing scale (1), weight * distance (1)
    return 5 * l * l, _nbytes(args[0].weights)


def _no_work(args, out):
    return 0, 0


def _buffer_ident(args):
    """Address and shape of the first argument's buffer; equal only for the same data."""
    x = np.asarray(args[0])
    return x.__array_interface__["data"][0], x.shape, x.strides


@dataclass(frozen=True)
class Hook:
    """One wrapped module attribute.

    ``tag`` says where the resolution tag comes from: the trailing three
    dims of the first argument ("arg0"), of the first tensor in a list
    argument ("list0"), the enclosing span ("parent"), or nowhere ("none").
    ``grouped`` calls are the ones ``network.forward`` makes itself.
    """

    module: str
    attr: str
    name: str
    tag: str
    work: Callable
    grouped: bool = False
    kind: str = "call"
    ident: Callable | None = None


HOOKS = (
    Hook("network", "forward", "network.forward", "none", _no_work, kind="forward"),
    Hook("network", "pointwise_conv", "tensor.pointwise_conv", "arg0", _conv_work, grouped=True),
    Hook("network", "gelu", "tensor.gelu", "arg0", _gelu_work, grouped=True),
    Hook("network", "layer_norm", "tensor.layer_norm", "arg0", _norm_work, grouped=True),
    Hook("network", "voxel_shuffle", "tensor.voxel_shuffle", "arg0", _move_work, grouped=True),
    Hook("network", "downsample_conv", "network.downsample_conv", "arg0", _downsample_work, grouped=True),
    Hook("network", "jlc_forward", "jlc.jlc_forward", "arg0", _no_work, grouped=True),
    Hook("network", "pwa_forward", "pwa.pwa_forward", "list0", _no_work, grouped=True),
    Hook("jlc", "conv3d", "tensor.conv3d", "arg0", _conv_work),
    Hook("jlc", "pointwise_conv", "tensor.pointwise_conv", "arg0", _conv_work),
    Hook("jlc", "instance_norm", "tensor.instance_norm", "arg0", _norm_work),
    Hook("jlc", "gelu", "tensor.gelu", "arg0", _gelu_work),
    Hook("pwa", "layer_norm", "tensor.layer_norm", "arg0", _norm_work),
    Hook("pwa", "pointwise_conv", "pwa.proj", "arg0", _conv_work),
    Hook("pwa", "gather", "pwa.gather", "list0", _gather_work),
    Hook("pwa", "grouped_attention", "pwa.grouped_attention", "parent", _attention_work),
    Hook("pwa", "scatter", "pwa.scatter", "parent", _scatter_work),
    Hook("volume_io", "read", "volume_io.read", "none", _read_work),
    Hook("volume_io", "write", "volume_io.write", "none", _write_work),
    Hook("sdkt", "sdkt_loss", "sdkt.sdkt_loss", "none", _no_work),
    Hook("sdkt", "sdkt_grad", "sdkt.sdkt_grad", "none", _grad_work),
    Hook("sdkt", "gram", "sdkt.gram", "none", _gram_work, ident=_buffer_ident),
    Hook("analysis", "mad", "analysis.mad", "none", _mad_work),
)

# forward position group -> flop_breakdown key
FLOP_GROUPS = {
    "network.stem": "stem",
    "network.conv": "encoder_conv",
    "network.attn": "attention",
    "network.fuse": "fusion",
    "network.down": "downsample",
    "network.dec": "decoder",
    "network.head": "head",
}


def flop_group(group_name: str) -> str:
    """'network.conv.s2' -> 'network.conv'; 'network.stem' -> 'network.stem'."""
    parts = group_name.split(".")
    return ".".join(parts[:2])


def forward_groups(net) -> dict[int, str]:
    """Map id(parameter object) -> forward position group for one network."""
    groups = {}

    def put(obj, name):
        if obj is not None:
            groups[id(obj)] = name

    for p in (net.modal_mixer, net.jlc_embed, net.pwa_embed):
        put(p, "network.stem")
    for k, stage in enumerate(net.stages, start=1):
        for blk in stage.jlc_blocks:
            put(blk, f"network.conv.s{k}")
        for blk in stage.pwa_blocks:
            for obj in (blk.attn, blk.ffn_expand, blk.ffn_project, blk.ffn_norm_scale):
                put(obj, f"network.attn.s{k}")
        put(stage.fuse_proj, "network.fuse")
        put(stage.jlc_down, "network.down")
        put(stage.pwa_down, "network.down")
    levels = len(net.decoder)
    for i, dec in enumerate(net.decoder):
        name = f"network.dec.l{levels - i}"
        put(dec.up_proj, name)
        for blk in dec.blocks:
            put(blk, name)
    put(net.final_expand, "network.head")
    put(net.head, "network.head")
    return groups


def resolution_tags(cfg) -> dict[tuple, str]:
    tags = {tuple(cfg.input_extent): "full"}
    for k, ext in enumerate(cfg.stage_extents(), start=1):
        tags.setdefault(tuple(ext), f"s{k}")
    return tags


class Instrument:
    """Installs the wrappers of :data:`HOOKS` into the pwseg modules.

    ``net`` (optional) supplies the forward position groups and the
    resolution tags.  Use as a context manager; the original functions are
    restored on exit.
    """

    def __init__(self, tracer: Tracer, modules: dict, net=None):
        self.tracer = tracer
        self.modules = modules
        self.groups = forward_groups(net) if net is not None else {}
        self.tags = resolution_tags(net.config) if net is not None else {}
        self._saved = []

    def __enter__(self):
        for hook in HOOKS:
            mod = self.modules[hook.module]
            original = getattr(mod, hook.attr)
            self._saved.append((mod, hook.attr, original))
            setattr(mod, hook.attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _tag(self, hook: Hook, args, parent: Span | None) -> str:
        inherited = parent.tag if parent is not None else ""
        if hook.tag == "arg0":
            return self.tags.get(tuple(np.shape(args[0])[-3:]), inherited)
        if hook.tag == "list0":
            return self.tags.get(tuple(np.shape(args[0][0])[-3:]), inherited)
        if hook.tag == "parent":
            return inherited
        return ""

    def _enter_group(self, args) -> None:
        """Open the forward position group this call belongs to, if it changed."""
        tracer = self.tracer
        top = tracer.stack()[-1]
        group = self.groups.get(id(args[1])) if len(args) > 1 else None
        if top.kind == "group":
            if group is None or group == top.name:
                return
            tracer.close(top)
        elif group is None:
            return
        tracer.open(group, kind="group")

    def _wrap(self, hook: Hook, original):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            if hook.grouped and stack and stack[-1].kind in ("forward", "group"):
                self._enter_group(args)
            parent = stack[-1] if stack else None
            span = tracer.open(hook.name, self._tag(hook, args, parent), kind=hook.kind)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            span.mults, span.nbytes = hook.work(args, result)
            if hook.ident is not None:
                span.ident = hook.ident(args)
            return result

        wrapper.__wrapped__ = original
        return wrapper


# ---------------------------------------------------------------------------
# Derived quantities.


def self_times(spans) -> dict[int, float]:
    """Self time per span id: its duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = (s.end - s.start) - covered
    return out


@dataclass
class OpLayers:
    """Per-layer totals of one op."""

    self_s: dict
    calls: dict
    mults: dict
    nbytes: dict
    group_s: dict
    group_mults: dict
    distinct_gram_inputs: int
    coverage: float
    kernel_coverage: float


def per_op_layers(spans) -> dict:
    """Fold a span list into one :class:`OpLayers` per op id."""
    self_s = self_times(spans)
    by_id = {s.sid: s for s in spans}
    has_child = {s.parent for s in spans if s.parent is not None}
    ops = defaultdict(list)
    for s in spans:
        ops[s.op].append(s)
    result = {}
    for op_id, members in ops.items():
        layer_self = defaultdict(float)
        calls = defaultdict(int)
        mults = defaultdict(int)
        nbytes = defaultdict(int)
        group_s = defaultdict(float)
        group_mults = defaultdict(int)
        top_level = leaf = 0.0
        root = None
        grams = set()
        for s in members:
            if s.kind == "op":
                root = s
                continue
            if s.kind == "group":
                group_s[s.name] += s.end - s.start
                continue
            key = s.key
            layer_self[key] += self_s[s.sid]
            calls[key] += 1
            mults[key] += s.mults
            nbytes[key] += s.nbytes
            if s.sid not in has_child:
                leaf += self_s[s.sid]
            if s.mults:
                anc = by_id.get(s.parent)
                while anc is not None and anc.kind != "group":
                    anc = by_id.get(anc.parent)
                if anc is not None:
                    group_mults[flop_group(anc.name)] += s.mults
            if s.name == "sdkt.gram":
                grams.add(s.ident)
        if root is None:
            continue
        for s in members:
            if s.parent == root.sid:
                top_level += s.end - s.start
        dur = root.end - root.start
        result[op_id] = OpLayers(
            self_s=dict(layer_self), calls=dict(calls), mults=dict(mults), nbytes=dict(nbytes),
            group_s=dict(group_s), group_mults=dict(group_mults),
            distinct_gram_inputs=len(grams),
            coverage=top_level / dur if dur > 0 else 0.0,
            kernel_coverage=leaf / dur if dur > 0 else 0.0,
        )
    return result


def median_of(ops: list[OpLayers], field: str, key: str) -> float:
    return statistics.median(getattr(o, field).get(key, 0.0) for o in ops)


def counts_repeat(ops: list[OpLayers]) -> bool:
    """True when every op executed exactly the same calls, multiplies and bytes."""
    first = ops[0]
    return all(
        (o.calls, o.mults, o.nbytes, o.group_mults) == (first.calls, first.mults, first.nbytes, first.group_mults)
        for o in ops[1:]
    )
