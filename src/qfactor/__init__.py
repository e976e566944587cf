"""qfactor: spectral-threshold verification toolkit for even factors."""

__version__ = "0.1.0"
# The largest order an exhaustive enumeration runs at unless told otherwise.
DEFAULT_ENUM_ORDER = 7

REPORT_SCHEMA = "qfactor.report/v1"
