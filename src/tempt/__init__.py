"""Temporal-consistency test-time adaptation for frame-wise video classifiers."""

__version__ = "0.1.0"
