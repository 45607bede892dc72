"""Monte-Carlo study of how random sensor placement affects energy-based
point-source localization: forward sensing chain, ML estimation,
error bounds, and localization-outage statistics over geometry ensembles.

The submodules are the Python API; the ``srcloc`` command-line front end
is ``srcloc.cli``.  Importing this package loads none of them.
"""

__version__ = "0.1.0"
