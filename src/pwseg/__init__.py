"""CPU inference and cost-accounting engine for a lightweight paired-window
3D segmentation network.

The public names below load their submodule on first access, so importing
``pwseg`` (or ``pwseg.cli``) does not load numpy; ``pwseg bench`` relies on
that to pin BLAS thread counts before numpy starts its BLAS.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("BenchReport", "MadInput", "bench", "dice", "index_to_coords", "mad"),
    "jl": (
        "GroupPlan",
        "MEDICAL3D_VOLUME_RATIOS",
        "NATURAL2D_VOLUME_RATIOS",
        "group_size_bound",
        "head_channels",
        "plan_stages",
    ),
    "jlc": ("JlcBlockParams", "branch_channel_split", "build_jlc_block", "jlc_forward"),
    "network": (
        "Network",
        "NetworkConfig",
        "build",
        "config_from_dict",
        "conv_only",
        "flop_breakdown",
        "forward",
        "total_flops",
    ),
    "pwa": (
        "CostMeter",
        "PwaParams",
        "WindowSchedule",
        "build_pwa_params",
        "fit_big_window",
        "gather",
        "grouped_attention",
        "pwa_flops",
        "pwa_forward",
        "scatter",
        "window_schedule",
    ),
    "sdkt": ("gram", "mmd_poly2", "sdkt_grad", "sdkt_loss"),
    "tensor": (
        "ConvParams",
        "conv3d",
        "gelu",
        "instance_norm",
        "layer_norm",
        "max_pool3",
        "param_arrays",
        "param_count",
        "pointwise_conv",
        "softmax_rows",
        "voxel_shuffle",
        "window_merge",
        "window_partition",
    ),
    "volume_io": ("SyntheticSpec", "gen_synthetic", "read", "write"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
