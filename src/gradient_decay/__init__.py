"""Gradient-decay softmax cross-entropy: loss analytics, trainer, calibration.

Importing the package loads nothing else; import the module you need,
e.g. ``gradient_decay.loss`` or ``gradient_decay.mlp``.
"""

__version__ = "0.1.0"
