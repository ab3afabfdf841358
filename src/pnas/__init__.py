"""Progressive cell-based architecture search with surrogate accuracy predictors.

Import what you need from the submodules (``pnas.cells``, ``pnas.search``,
...). The package itself re-exports nothing, so a process that only needs
cells and evaluators, such as an external worker, loads only those.
"""

__version__ = "0.1.0"
