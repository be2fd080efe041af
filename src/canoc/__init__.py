"""canoc: one-class intrusion detection for CAN bus traffic.

Pipeline: parse or synthesize traffic logs, extract per-ID timing features
over fixed windows, train SVDD-family one-class models on attack-free
traffic only, and flag anomalous windows caused by injection attacks.
"""

from .canlog import (CanFrame, CanLog, CsvSchema, LogParseError, load_log,
                     parse_candump_line, parse_csv_log, read_candump,
                     save_log, write_csv_log)
from .evaluate import (EvalReport, GridSearchResult, SplitSpec, evaluate,
                       expand_grid, gmean, grid_search, split,
                       write_report_table)
from .features import (FeatureVector, IdVocabulary, LABELS, LABEL_NORMAL,
                       LABEL_RANDOM_ID, LABEL_REPLAY, LABEL_UNKNOWN_ANOMALY,
                       LABEL_ZERO_ID, Scaler, Window, apply_scaler,
                       build_vocabulary, extract_features, extract_matrix,
                       fit_scaler, read_feature_csv, segment_windows,
                       write_feature_csv)
from .models import (Detector, DualSolverError, KernelSpec, NptEmbedding,
                     esvdd_fit, fit_model, geocsvm_fit, gesvdd_fit,
                     gram_matrix, graph_laplacian, load_model,
                     median_heuristic, model_tag, npt_embed, ocsvm_fit,
                     predict, save_model, score_samples, solve_ocsvm_dual,
                     solve_svdd_dual, ssvdd_fit, svdd_fit)
from .simulate import (AttackScenario, BusSpec, EcuSpec, LabeledLog,
                       default_bus, generate_normal, inject,
                       inject_random_id, inject_replay, inject_zero_id,
                       label_windows, read_labels, write_labels)

__version__ = "0.1.0"
