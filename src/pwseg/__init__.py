"""CPU inference and cost-accounting engine for a lightweight paired-window
3D segmentation network.

Public names are imported from their modules, for example
``from pwseg.network import build, forward``.  This package module imports
nothing, so importing ``pwseg`` (or ``pwseg.cli``) does not load numpy;
``pwseg bench`` relies on that to pin BLAS thread counts before numpy
starts its BLAS.
"""

__version__ = "0.1.0"
