"""Revisions of the numerical solvers behind content-addressed results.

A leaf module (no imports): the precompute cache folds
``SOLVER_REVISION`` into its thermal key and the spectrum service into
every request digest, and a client computing a digest must not have to
import the solver to do so.
"""

#: Revision of the ionization solve behind the tables
#: ``ThermalHistory.to_tables`` exports, and so behind every spectrum.
#: Entries persisted under an earlier revision are never served; bump it
#: with any change that moves the tables.  (2: Newton Saha solver; 3: one
#: LSODA call choosing its own first step, x_e moves 1e-7 after the
#: switch; 4: our Radau IIA stepper in place of LSODA, x_H / T_b move by
#: LSODA's own error, <= 4e-7, toward the converged solution.)
SOLVER_REVISION = 4
