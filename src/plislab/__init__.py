"""Desk-scale laboratory for attribute-level privacy-loss analysis.

Train small models with differentiable-clipping DP-SGD, compute
per-subject privacy loss and its input susceptibility matrix (plus the
Fisher information view), and probe the link between susceptibility and
gradient-inversion reconstruction risk.
"""

from .accounting import (
    AccountantState,
    GaussianMechanismParams,
    epsilon_from_rdp,
    sigma_for_budget,
)
from .attack import AttackConfig, AttackResult, DpRelease, observe_gradient, reconstruct
from .autodiff import Graph, Tensor, backward, finite_diff_check
from .datasets import (
    ImageDataset,
    SubjectRecord,
    TabularDataset,
    inject_ood,
    load_images,
    make_glyph_images,
    make_regression,
    write_plds,
)
from .dpsgd import DpSgdConfig, TrainTrace, clip_differentiable, dp_sgd_step, train
from .errors import PlisLabError
from .imagemetrics import GrayImage, psnr, ssim
from .models import (
    Conv2d,
    Flatten,
    Linear,
    ModelSpec,
    ParamSet,
    Relu,
    Softplus,
    Tanh,
    init_params,
    load_checkpoint,
    per_sample_grad,
    save_checkpoint,
)
from .plis import (
    FimReport,
    JacSensReport,
    PlisReport,
    fim_subject,
    jacsens_subject,
    plis_direct,
    plis_expanded,
    plis_reports,
    privacy_loss,
    rank_subjects,
    superpixel_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AccountantState",
    "AttackConfig",
    "AttackResult",
    "Conv2d",
    "DpRelease",
    "DpSgdConfig",
    "Flatten",
    "FimReport",
    "GaussianMechanismParams",
    "Graph",
    "GrayImage",
    "ImageDataset",
    "JacSensReport",
    "Linear",
    "ModelSpec",
    "ParamSet",
    "PlisLabError",
    "PlisReport",
    "Relu",
    "Softplus",
    "SubjectRecord",
    "TabularDataset",
    "Tanh",
    "Tensor",
    "TrainTrace",
    "backward",
    "clip_differentiable",
    "dp_sgd_step",
    "epsilon_from_rdp",
    "fim_subject",
    "finite_diff_check",
    "inject_ood",
    "init_params",
    "jacsens_subject",
    "load_checkpoint",
    "load_images",
    "make_glyph_images",
    "make_regression",
    "observe_gradient",
    "per_sample_grad",
    "plis_direct",
    "plis_expanded",
    "plis_reports",
    "privacy_loss",
    "psnr",
    "rank_subjects",
    "reconstruct",
    "save_checkpoint",
    "sigma_for_budget",
    "ssim",
    "superpixel_norm",
    "train",
    "write_plds",
]
