"""SVD-based biplot analysis of labeled multivariate tables."""

from .baselines import CaModel, MdsEmbedding, classical_mds, correspondence_analysis, pca_map
from .data import (DataTable, PreprocessRecord, case_csv, load_case, parse_table,
                   preprocess, serialize_table)
from .engine import (BiplotModel, QualityReport, column_cosines, column_lengths,
                     fit_biplot, gh, jk, pca_scores, pearson, quality, reconstruct,
                     row_distances, sqrt_biplot)
from .errors import InputError, NumericalError
from .linalg import SvdResult, low_rank_approx, sign_normalize, svd
from .report import AnalysisReport, PlotSpec, analyze, render_svg

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "BiplotModel", "CaModel", "DataTable", "InputError",
    "MdsEmbedding", "NumericalError", "PlotSpec", "PreprocessRecord",
    "QualityReport", "SvdResult", "analyze", "case_csv", "classical_mds",
    "column_cosines", "column_lengths", "correspondence_analysis", "fit_biplot",
    "gh", "jk", "load_case", "low_rank_approx", "parse_table", "pca_map",
    "pca_scores", "pearson", "preprocess", "quality", "reconstruct",
    "render_svg", "row_distances", "serialize_table", "sign_normalize",
    "sqrt_biplot", "svd",
]
