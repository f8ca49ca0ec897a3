"""vical: variational (IVON) vs AdamW training for small classifiers,
with calibration and selective-prediction evaluation."""

__version__ = "0.1.0"
