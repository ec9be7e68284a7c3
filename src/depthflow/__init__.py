"""depthflow: Monte Carlo laboratory for depth-scaled residual networks
and their limiting stochastic differential equations."""

from .activations import (Activation, IDENTITY, RELU, SWISH, TANH,
                          get_activation)
from .config import ModelConfig, SeedSpec, make_rng
from .laws import (FullyIidLaw, GeneralGaussianLaw, MatrixNormalLaw, ParamLaw,
                   conditional_variance, cross_covariance, psd_sqrt,
                   time_change_rescale)
from .resnet import (FeedforwardConfig, PathBatch, eoc_solve,
                     feedforward_forward, resnet_forward)
from .sde import (SdeCoefficients, diffusion_eval, drift_eval,
                  linear_growth_check, simulate_paths)
from .experiments import (AbcSpec, ExperimentConfig, ModelSpec, SgdSpec,
                          apply_overrides, load_config, parse_config,
                          run_experiment, save_config)
from .stats import (Kde1d, QuadCovEstimate, SampleSummary, corr_over_inputs,
                    kde1d, ks_two_sample, quad_covariation, summarize)
from .train import (AdaptationLayers, Dataset, TrainConfig, TrainTrace,
                    backward, forward_loss, load_idx, sgd_run)

__version__ = "0.1.0"
