"""One-class classifier suite: SVDD, S-SVDD (psi0-psi3), E-SVDD, GE-SVDD,
OC-SVM and GE-OC-SVM, in linear and rbf variants, over a shared dual solver.
Every fitter returns one :class:`Detector`."""

from .api import (FAMILY_PARAMS, LABEL_ANOMALY, MODEL_FAMILIES, ScoreRangeError,
                  fit_model, predict, score_samples)
from .detector import Detector, Projection
from .kernels import (KernelSpec, LINEAR, gram_matrix, median_heuristic,
                      resolve_kernel)
from .ocsvm import ocsvm_fit
from .persist import (config_digest, load_model, model_from_dict,
                      model_to_dict, model_tag, save_model)
from .smo import (DualSolverError, FactorGram, center_distances_sq,
                  solve_ocsvm_dual, solve_simplex_box_qp, solve_svdd_dual)
from .ssvdd import (NptEmbedding, PSI_VARIANTS, npt_embed,
                    orthonormalize_rows, ssvdd_fit, ssvdd_gradient,
                    ssvdd_objective)
from .svdd import svdd_fit
from .whiten import (esvdd_fit, geocsvm_fit, gesvdd_fit, graph_laplacian,
                     inv_sqrt_psd)
