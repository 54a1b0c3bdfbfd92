"""Geometry-conditioned diffusion-transformer generation of THz UM-MIMO channels."""

# Importing thzgen sets OpenBLAS to one thread (see ``_lanes``), whichever of
# its modules a caller imports first; test_import_sets_openblas_to_one_thread
# pins that.  Every other name is imported from its own module.
from . import _lanes
