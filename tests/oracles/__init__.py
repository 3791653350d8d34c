"""Reference implementations that the tests check recwalk against.

None of this runs under the `recwalk` commands: the step-level walk
(`spaces`, `engine`) that the event-driven walks are compared with, exact
finite-chain analysis for the visit-count equivalences (`finite_chain`),
the exact shift law, its large deviations, the exact auxiliary Green sums
and the direct walk's exact Green sums by push-forward (`shift_law`), the
lower-bound check, dense local-limit error, one-shot n-fold law and exact
P(Z_n = 0) (`stable_laws`), the brute-force first-return law, the law
held whole, the one-shot survival product and the return-position law's
completion beyond k_max in closed form (`return_laws`), and the one-shot
samplers and `key=` streams that the in-place ones must equal bit for bit
(`samplers`).
"""
