"""SVD-based biplot analysis of labeled multivariate tables. Each public name
loads from its home module on first use (PEP 562): ``import biplot`` loads no numpy."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "baselines": "CaModel MdsEmbedding classical_mds correspondence_analysis",
    "catalog": "case_csv",
    "data": "DataTable PreprocessRecord load_case parse_table preprocess serialize_table",
    "engine": "BiplotModel QualityReport column_cosines fit_biplot gh jk pca_scores pearson "
              "quality reconstruct row_distances sqrt_biplot",
    "errors": "InputError NumericalError",
    "linalg": "SvdResult low_rank_approx svd",
    "report": "AnalysisReport analyze svg_lines",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
