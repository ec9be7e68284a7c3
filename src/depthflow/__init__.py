"""depthflow: Monte Carlo laboratory for depth-scaled residual networks
and their limiting stochastic differential equations."""

from .activations import get_activation
from .config import ModelConfig, SeedSpec
from .laws import (FullyIidLaw, GeneralGaussianLaw, MatrixNormalLaw,
                   conditional_variance, cross_covariance, psd_sqrt,
                   time_change_rescale)
from .resnet import (FeedforwardConfig, eoc_solve, feedforward_forward,
                     resnet_forward)
from .sde import (SdeCoefficients, diffusion_eval, drift_eval,
                  linear_growth_check, simulate_paths)
from .experiments import (ExperimentConfig, apply_overrides, load_config,
                          parse_config, run_experiment, save_config)
from .stats import (corr_over_inputs, kde1d, ks_two_sample, quad_covariation,
                    summarize)
from .train import (Dataset, TrainConfig, backward, forward_loss, load_idx,
                    sgd_run)

__version__ = "0.1.0"
