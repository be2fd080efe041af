"""canoc: one-class intrusion detection for CAN bus traffic.

Pipeline: parse or synthesize traffic logs, extract per-ID timing features
over fixed windows, train SVDD-family one-class models on attack-free
traffic only, and flag anomalous windows caused by injection attacks.
"""

from .canlog import (CanFrame, CanLog, LogParseError, parse_csv_log, read_candump,
                     write_csv_log)
from .evaluate import SplitSpec, evaluate, gmean, split, write_report_table
from .features import (IdVocabulary, Window, apply_scaler, build_vocabulary,
                       extract_features, extract_matrix, fit_scaler,
                       segment_windows)
from .models import (KernelSpec, esvdd_fit, fit_model, geocsvm_fit, gesvdd_fit,
                     graph_laplacian, load_model, npt_embed, ocsvm_fit, predict,
                     save_model, score_samples, ssvdd_fit, svdd_fit)
from .simulate import (AttackScenario, BusSpec, EcuSpec, LabeledLog,
                       default_bus, generate_normal, inject, label_windows,
                       read_labels, write_labels)

__version__ = "0.1.0"
