"""Multigrid solvers and multigrid-structured convolutional networks.

One convolution core backs three layers of functionality: a geometric
multigrid Poisson solver, the residual-correction network family with its
classic single-grid counterparts, and a verification suite that certifies
the structural equivalences between them at machine precision.
"""

from .tensor_core import (ContractViolation, ConvKernel, PaddingMode, Tensor,
                          conv2d, relu, softmax)
from .grid_transfer import ProlongationMode, pool_max, prolongate, restrict_kr
from .poisson_mg import (PoissonHierarchy, SmootherSpec, backslash_mg, mg0,
                         solve_poisson)
from .mgnet_model import (MgNetConfig, MgNetWeights, classify, count_params,
                          init_weights, mgnet_forward, v_mgnet_forward)
from .equivalence_lab import (EquivalenceReport, verify, verify_all)
from .training import TrainConfig, evaluate, finite_diff_check, train
from .data_io import (LabeledImage, gen_synthetic, load_checkpoint,
                      load_cifar10, load_cifar100, save_checkpoint)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
