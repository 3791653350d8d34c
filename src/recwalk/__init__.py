"""Random walks whose recurrence behaviour depends on the starting point.

First-return laws with certified truncation, stable-law local-limit
checks, and a branched space on which the walk is recurrent, transient,
or neither, depending on where it starts.  The package is the code that
the `recwalk` commands run (`recwalk.cli`).

Import the submodules directly (`recwalk.cli`, `recwalk.return_laws`, ...);
the package itself exports nothing but its version.
"""

__version__ = "0.1.0"
