"""Random walks whose recurrence behaviour depends on the starting point.

Exact sparse push-forwards, seeded Monte Carlo ensembles, first-return
laws with certified truncation, stable-law local-limit checks, and a
branched space on which the walk is recurrent, transient, or neither,
depending on where it starts.

Import the submodules directly (`recwalk.cli`, `recwalk.return_laws`, ...);
the package itself exports nothing but its version.
"""

__version__ = "0.1.0"
