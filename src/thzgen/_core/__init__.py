"""Name of the channel kernels' implementation; channel synthesis is numpy only."""

BACKEND = "numpy"
