"""qfactor: spectral-threshold verification toolkit for even factors."""

__version__ = "0.1.0"
REPORT_SCHEMA = "qfactor.report/v2"
