"""Geometry-conditioned diffusion-transformer generation of THz UM-MIMO channels."""

from .beamspace import (
    block_dictionary,
    dft_dictionary,
    dictionaries_for,
    from_beamspace,
    to_beamspace,
)
from .channel import (
    ChannelMatrix,
    hpsm_channel,
    pwm_channel,
    swm_channel,
)
from .dataset import (
    Dataset,
    DatasetConfig,
    DatasetHeader,
    SamplingRegion,
    build_dataset,
    normalize,
    read_dataset,
    split,
    write_dataset,
)
from .diffusion import (
    AnalyticGaussianDenoiser,
    DiffusionSchedule,
    denoising_loss,
    ema_update,
    euler_sample,
    score_from_denoiser,
)
from .dit import DitConfig, DitDenoiser
from .evaluation import (
    angular_power,
    compare_power,
    nmse,
    ssim,
    ssim_complex,
)
from .geometry import (
    ArrayGeometry,
    condition_vector,
    rayleigh_distance,
)
from .paths import GscmConfig, Path, PathSet, draw_paths
from .training import TrainConfig, adam_step, train

__version__ = "0.1.0"
