"""Reference implementations that the tests check recwalk against.

None of this runs under the `recwalk` commands: the step-level walk
(`spaces`, `engine`) that the event-driven walks are compared with, exact
finite-chain analysis for the visit-count equivalences (`finite_chain`),
the exact shift law and its large deviations (`shift_law`), and the
Gaussian target, lower-bound check and dense local-limit error
(`stable_laws`), with the brute-force first-return law (`return_laws`).
"""
