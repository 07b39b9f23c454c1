"""The tracer contract: what perfbench's tracer records over one forward.

perfbench wraps the module-level callees of ``network.forward``, ``jlc`` and
``pwa`` and groups ``forward``'s own calls by the parameter objects it finds
on ``Network``.  An engine change that renames a callee, moves a call
between modules or drops a field the tracer reads changes these counts, so
this test pins them: per-key calls and executed multiplies, and multiplies
per forward position group, for one 32^3 forward at M=2 and M=4 (build
seed 0), and per-key calls, multiplies and distinct Gram inputs for one
analysis op (``sdkt_loss`` + ``sdkt_grad`` + ``mad``) on small fixed inputs.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from pwseg import analysis, jlc, network, pwa, sdkt, volume_io
from pwseg.network import NetworkConfig, build

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402

MODULES = dict(analysis=analysis, jlc=jlc, network=network, pwa=pwa, sdkt=sdkt, volume_io=volume_io)

# modalities -> {span key: (calls, executed multiplies)}
LAYERS = {
    2: {
        "jlc.jlc_forward.s1": (3, 0),
        "jlc.jlc_forward.s2": (3, 0),
        "jlc.jlc_forward.s3": (3, 0),
        "jlc.jlc_forward.s4": (3, 0),
        "network.downsample_conv.full": (3, 9437184),
        "network.downsample_conv.s1": (3, 786432),
        "network.downsample_conv.s2": (3, 393216),
        "network.downsample_conv.s3": (3, 196608),
        "network.forward": (1, 0),
        "pwa.gather.s1": (3, 0),
        "pwa.gather.s2": (3, 0),
        "pwa.gather.s3": (3, 0),
        "pwa.gather.s4": (3, 0),
        "pwa.grouped_attention.s1": (2, 2359296),
        "pwa.grouped_attention.s2": (1, 1048576),
        "pwa.grouped_attention.s3": (1, 32768),
        "pwa.grouped_attention.s4": (1, 1024),
        "pwa.proj.s1": (8, 1048576),
        "pwa.proj.s2": (8, 524288),
        "pwa.proj.s3": (8, 262144),
        "pwa.proj.s4": (8, 131072),
        "pwa.pwa_forward.s1": (1, 0),
        "pwa.pwa_forward.s2": (1, 0),
        "pwa.pwa_forward.s3": (1, 0),
        "pwa.pwa_forward.s4": (1, 0),
        "pwa.scatter.s1": (1, 0),
        "pwa.scatter.s2": (1, 0),
        "pwa.scatter.s3": (1, 0),
        "pwa.scatter.s4": (1, 0),
        "tensor.conv3d.s1": (9, 3784704),
        "tensor.conv3d.s2": (9, 1892352),
        "tensor.conv3d.s3": (9, 513024),
        "tensor.conv3d.s4": (9, 256512),
        "tensor.gelu.full": (1, 3145728),
        "tensor.gelu.s1": (8, 884736),
        "tensor.gelu.s2": (8, 221184),
        "tensor.gelu.s3": (8, 39936),
        "tensor.gelu.s4": (8, 9984),
        "tensor.instance_norm.s1": (6, 147456),
        "tensor.instance_norm.s2": (6, 36864),
        "tensor.instance_norm.s3": (6, 9216),
        "tensor.instance_norm.s4": (6, 2304),
        "tensor.layer_norm.s1": (4, 98304),
        "tensor.layer_norm.s2": (4, 24576),
        "tensor.layer_norm.s3": (4, 6144),
        "tensor.layer_norm.s4": (4, 1536),
        "tensor.pointwise_conv.full": (2, 1310720),
        "tensor.pointwise_conv.s1": (13, 6553600),
        "tensor.pointwise_conv.s2": (13, 2752512),
        "tensor.pointwise_conv.s3": (13, 1048576),
        "tensor.pointwise_conv.s4": (12, 475136),
        "tensor.voxel_shuffle.s1": (1, 0),
        "tensor.voxel_shuffle.s2": (1, 0),
        "tensor.voxel_shuffle.s3": (1, 0),
        "tensor.voxel_shuffle.s4": (1, 0),
    },
    4: {
        "jlc.jlc_forward.s1": (3, 0),
        "jlc.jlc_forward.s2": (3, 0),
        "jlc.jlc_forward.s3": (3, 0),
        "jlc.jlc_forward.s4": (3, 0),
        "network.downsample_conv.full": (5, 10485760),
        "network.downsample_conv.s1": (5, 1310720),
        "network.downsample_conv.s2": (5, 655360),
        "network.downsample_conv.s3": (5, 327680),
        "network.forward": (1, 0),
        "pwa.gather.s1": (3, 0),
        "pwa.gather.s2": (3, 0),
        "pwa.gather.s3": (3, 0),
        "pwa.gather.s4": (3, 0),
        "pwa.grouped_attention.s1": (2, 9437184),
        "pwa.grouped_attention.s2": (1, 4194304),
        "pwa.grouped_attention.s3": (1, 131072),
        "pwa.grouped_attention.s4": (1, 4096),
        "pwa.proj.s1": (16, 2097152),
        "pwa.proj.s2": (16, 1048576),
        "pwa.proj.s3": (16, 524288),
        "pwa.proj.s4": (16, 262144),
        "pwa.pwa_forward.s1": (1, 0),
        "pwa.pwa_forward.s2": (1, 0),
        "pwa.pwa_forward.s3": (1, 0),
        "pwa.pwa_forward.s4": (1, 0),
        "pwa.scatter.s1": (1, 0),
        "pwa.scatter.s2": (1, 0),
        "pwa.scatter.s3": (1, 0),
        "pwa.scatter.s4": (1, 0),
        "tensor.conv3d.s1": (9, 3784704),
        "tensor.conv3d.s2": (9, 1892352),
        "tensor.conv3d.s3": (9, 513024),
        "tensor.conv3d.s4": (9, 256512),
        "tensor.gelu.full": (1, 3145728),
        "tensor.gelu.s1": (10, 1179648),
        "tensor.gelu.s2": (10, 294912),
        "tensor.gelu.s3": (10, 52224),
        "tensor.gelu.s4": (10, 13056),
        "tensor.instance_norm.s1": (6, 147456),
        "tensor.instance_norm.s2": (6, 36864),
        "tensor.instance_norm.s3": (6, 9216),
        "tensor.instance_norm.s4": (6, 2304),
        "tensor.layer_norm.s1": (8, 196608),
        "tensor.layer_norm.s2": (8, 49152),
        "tensor.layer_norm.s3": (8, 12288),
        "tensor.layer_norm.s4": (8, 3072),
        "tensor.pointwise_conv.full": (2, 2359296),
        "tensor.pointwise_conv.s1": (17, 8126464),
        "tensor.pointwise_conv.s2": (17, 3538944),
        "tensor.pointwise_conv.s3": (17, 1310720),
        "tensor.pointwise_conv.s4": (16, 606208),
        "tensor.voxel_shuffle.s1": (1, 0),
        "tensor.voxel_shuffle.s2": (1, 0),
        "tensor.voxel_shuffle.s3": (1, 0),
        "tensor.voxel_shuffle.s4": (1, 0),
    },
}

# modalities -> {forward position group: executed multiplies inside it}
GROUP_MULTS = {
    2: {
        "network.attn": 8674816,
        "network.conv": 7849472,
        "network.dec": 5299200,
        "network.down": 1376256,
        "network.fuse": 245760,
        "network.head": 2359296,
        "network.stem": 13631488,
    },
    4: {
        "network.attn": 24232960,
        "network.conv": 7849472,
        "network.dec": 5299200,
        "network.down": 2293760,
        "network.fuse": 245760,
        "network.head": 2359296,
        "network.stem": 15728640,
    },
}


def traced_layers(modalities: int) -> tracing.OpLayers:
    net = build(NetworkConfig(modalities=modalities, input_extent=(32, 32, 32)), seed=0)
    volumes = [np.zeros((1, 32, 32, 32), dtype=np.float32) for _ in range(modalities)]
    tracer = tracing.Tracer()
    with tracing.Instrument(tracer, MODULES, net):
        with tracer.op(0):
            network.forward(net, volumes)
    (layers,) = tracing.per_op_layers(tracer.spans).values()
    return layers


@pytest.mark.parametrize("modalities", [2, 4])
def test_traced_forward_pinned(modalities):
    layers = traced_layers(modalities)
    assert layers.calls == {key: calls for key, (calls, _) in LAYERS[modalities].items()}
    assert layers.mults == {key: mults for key, (_, mults) in LAYERS[modalities].items()}
    assert layers.group_mults == GROUP_MULTS[modalities]


# span key -> (calls, executed multiplies) for one analysis op on the inputs below.  Each Gram
# of a [C, N] tensor is C^2 N multiplies: 3072 (seg), 384 and 2000 (teachers), once in the
# loss and once in the gradient; the gradient's own product is 3072.  mad is the tracer's
# 5 L^2 shape formula at L = 24, not the multiplies mad executes.
ANALYSIS = {
    "analysis.mad": (1, 2880),
    "sdkt.gram": (6, 10912),
    "sdkt.sdkt_grad": (1, 3072),
    "sdkt.sdkt_loss": (1, 0),
}


def test_traced_analysis_pinned():
    rng = np.random.default_rng(0)
    seg = rng.standard_normal((4, 4, 6, 8), dtype=np.float32)
    teachers = [
        (rng.standard_normal((4, 2, 3, 4), dtype=np.float32), 1.0),
        (rng.standard_normal((4, 5, 5, 5), dtype=np.float32), 0.5),
    ]
    inp = analysis.MadInput(np.full((24, 24), 1 / 24), (2, 3, 4))
    tracer = tracing.Tracer()
    with tracing.Instrument(tracer, MODULES):
        with tracer.op(0):
            sdkt.sdkt_loss(seg, teachers)
            sdkt.sdkt_grad(seg, teachers)
            analysis.mad(inp)
    (layers,) = tracing.per_op_layers(tracer.spans).values()
    assert layers.calls == {key: calls for key, (calls, _) in ANALYSIS.items()}
    assert layers.mults == {key: mults for key, (_, mults) in ANALYSIS.items()}
    assert layers.distinct_gram_inputs == 3
