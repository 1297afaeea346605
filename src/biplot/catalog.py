"""The embedded case-study tables, the named biplot types and scales, and the judges of a fit's
gamma and axes: what the CLI reads and judges before it computes, so nothing here needs numpy."""

from numbers import Integral

from .errors import InputError

GAMMA_BY_TYPE = {"jk": 1.0, "gh": 0.0, "sqrt": 0.5}
SCALES = ("none", "center", "zscore")  # the preprocessing modes


def method_name(gamma: float, dims: int = 1, svg: bool = False) -> str:
    """The type of ``gamma`` (jk, gh or sqrt), else "biplot". InputError for a gamma outside
    [0, 1] or NaN, then as ``judge_dims`` for ``dims`` and ``svg``."""
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must lie in [0, 1], got {gamma}")
    judge_dims(dims, svg=svg)
    return next((name for name, g in GAMMA_BY_TYPE.items() if g == gamma), "biplot")


def judge_dims(dims: int, top: int | None = None, of: str = "", svg: bool = False) -> None:
    """InputError, in this order, for a ``dims`` that is no integer (NumPy's are), for ``svg`` one
    other than 2, for one below 1, and for one above ``top``, given after ``of`` (as "rank=")."""
    if not isinstance(dims, Integral):
        raise InputError(f"dims must be an integer, got {dims}")
    if svg and dims != 2:
        raise InputError(f"SVG rendering requires a 2-D model, got dims={dims}")
    if dims < 1:
        raise InputError(f"dims must be positive, got {dims}")
    if top is not None and dims > top:
        raise InputError(f"dims must lie in [1, {of}{top}], got {dims}")

# Case-study fixtures. Values are kept verbatim as published.

_CASE1_CSV = """\
,MILL €,GDP,RES,%HR,DOC,CIT,CAVG,NCIT
Germany,69810,2.82,484566,44.8,119216,228773,1.76,1.36
France,43633,2.26,295696,43.9,87430,148995,1.57,1.39
United Kingdom,30071,1.77,385489,45.1,123756,253482,1.81,1.42
Italy,19539,1.26,149314,33.8,67459,118043,1.6,1.23
Spain,14588,1.39,221314,39,59642,96368,1.48,1.10
Sweden,11869,3.42,72692,50.8,25257,54567,2.03,1.39
Netherlands,10769,1.83,54505,51.9,39499,96134,2.22,1.66
Austria,7890,2.76,59341,39.2,15476,31879,1.9,1.23
Denmark,7208,3.06,52568,51.9,15042,38504,2.38,1.60
Belgium,7047,1.99,55858,49.3,21978,46169,1.95,1.44
Finland,6971,3.87,55797,50.6,13308,25310,1.81,1.26
Norway,5342,1.71,44762,51.5,12755,22401,1.62,1.39
Ireland,2796,1.79,21393,45.9,9499,17728,1.73,1.24
Portugal,2747,1.59,86369,23.9,12957,16756,1.22,1.05
Poland,2607,0.74,98165,36.3,26057,23729,0.88,0.64
Czech Republic,2334,1.56,43092,37.8,13790,17005,1.18,0.77
Hungary,1126,1.16,35267,33,7542,10648,1.34,0.91
Slovenia,745,2.11,10444,40.8,4104,4697,1.1,1.05
Romania,572,0.47,30645,24.4,10897,6254,0.56,0.73
Slovakia,416,0.63,21832,33.5,4195,4043,0.93,0.72
Bulgaria,214,0.6,14699,31.6,3293,2285,0.68,0.74
"""

_CASE2_CSV = """\
,Teaching,International Outlook,Research,Citations
ETH Zürich,79.1,97.5,85.8,87.2
Imperial College London,88.8,92.2,88.7,93.9
University of Oxford,89.5,91.9,96.6,97.9
University College London,77.8,91.8,84.3,89
University of British Columbia,68.6,88.7,78.6,85.2
University of Cambridge,90.5,85.3,94.2,97.3
Massachusetts Institute of Technology,92.7,79.2,87.4,100
University of Toronto,76.9,69,87.4,86.5
Columbia University,89.1,67.6,81.8,97.8
Harvard University,95.8,67.5,97.4,99.8
Georgia Institute of Technology,66.6,65,73.8,91.9
Johns Hopkins University,78.9,59.9,86.5,97.3
University of Chicago,89.4,58.8,90.8,99.4
Stanford University,94.8,57.2,98.9,99.8
California Institute of Technology,95.7,56,98.2,99.9
Yale University,92.3,55.5,91.2,96.7
Carnegie Mellon University,65.7,55,79.5,97.4
Cornell University,70.4,53.4,87.2,93.5
University of California Berkeley,82.8,50.4,99.4,99.4
Princeton University,91.5,49.6,99.1,100
University of Michigan,75.4,47.2,90,94.3
Duke University,62.6,46.9,77.9,97.4
University of California Los Angeles,85.9,41,92.5,97.3
University of Washington,70.8,36.9,74,98.2
University of Pennsylvania,87,34.3,86.1,97.9
"""

# Case 3 keeps the six normalized indicator columns.
_CASE3_CSV = """\
,NDOC,NCIT,H-Index,%Q1,ACIT,TOPCIT
Agricultural Sciences,0.352,0.408,0.737,0.885,0.854,0.733
Biological Sciences,0.329,0.244,0.622,0.548,0.543,0.385
Earth Sciences,0.729,0.577,0.742,0.891,0.658,0.579
Economics & Business,0.350,0.300,0.571,0.275,0.677,0.961
Physics,0.374,0.577,0.560,0.793,1.000,0.662
Engineering,0.320,0.381,0.733,0.844,0.465,0.643
Mathematics,0.860,0.798,0.762,0.638,0.525,0.523
Medicine & Pharmacy,0.270,0.171,0.452,0.653,0.628,0.650
Social Sciences,0.809,0.652,0.917,0.523,0.584,0.315
Psychology,0.911,0.652,0.800,0.376,0.456,0.335
Chemistry,0.376,0.262,0.591,0.813,0.534,0.379
Inf. Technology,0.584,1.000,1.000,0.689,0.891,0.942
"""

CASES = {
    1: ("Science & Bibliometrics for European Countries", _CASE1_CSV),
    2: ("Top 25 universities (THE Ranking)", _CASE2_CSV),
    3: ("Bibliometric Indicators of the University of Granada", _CASE3_CSV),
}


def case_csv(case_id: int) -> str:
    """Raw CSV text of an embedded case table (as published)."""
    if case_id not in CASES:
        raise InputError(f"unknown case id {case_id!r}, expected 1, 2 or 3")
    return CASES[case_id][1]
