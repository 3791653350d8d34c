"""Reference implementations that the tests check recwalk against.

None of this runs under the `recwalk` commands: the step-level walk
(`spaces`, `engine`) that the event-driven walks are compared with, exact
finite-chain analysis for the visit-count equivalences (`finite_chain`),
the exact shift law and its large deviations (`shift_law`), and the
Gaussian target, lower-bound check, dense local-limit error and one-shot
n-fold law (`stable_laws`), the brute-force first-return law and the
one-shot survival product (`return_laws`), and the one-shot samplers and
`key=` streams that the in-place ones must equal bit for bit (`samplers`).
"""
