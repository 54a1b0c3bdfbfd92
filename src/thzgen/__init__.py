"""Geometry-conditioned diffusion-transformer generation of THz UM-MIMO channels."""

from ._core import BACKEND as KERNEL_BACKEND
from .beamspace import (
    BeamDictionary,
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
    steering_vector,
    swm_channel,
)
from .dataset import (
    Dataset,
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
    perturb,
    score_from_denoiser,
)
from .dit import DitConfig, DitDenoiser
from .evaluation import (
    SsimParams,
    angular_power,
    compare_power,
    nmse,
    ssim,
    ssim_cdf,
    ssim_complex,
)
from .geometry import (
    ArrayGeometry,
    GeometryCondition,
    condition_vector,
    rayleigh_distance,
)
from .paths import GscmConfig, Path, PathSet, draw_paths
from .training import TrainConfig, adam_step, train

__version__ = "0.1.0"
