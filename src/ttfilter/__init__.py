"""Multitarget tracking for grids of non-directional amplitude sensors.

The API is the submodules (``ttfilter.model``, ``ttfilter.tracker``,
``ttfilter.config``, ...); README's "Library use" shows the usual entry
points.
"""

__version__ = "0.1.0"
