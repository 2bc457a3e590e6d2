"""Revisions of the numerical solvers behind content-addressed results.

A leaf module (no imports): the spectrum service folds
``SOLVER_REVISION`` into every request digest, and a client computing a
digest must not have to import the solver to do so.
"""

#: Revision of the solvers behind every served number: the ionization
#: solve behind ``ThermalHistory``'s tables, and the mode integration
#: behind every spectrum.  Entries persisted under an
#: earlier revision are never served; bump it with any solver change that
#: moves a served number.  (2: Newton Saha solver; 3: one LSODA call
#: choosing its own first step, x_e moves 1e-7 after the switch; 4: our
#: Radau IIA stepper in place of LSODA, x_H / T_b move by LSODA's own
#: error, <= 4e-7, toward the converged solution; 5: the full phase
#: steps at DVERK's Thomson stability bound instead of finding it by
#: rejection, and the step controller loses its dead integral term —
#: tables unmoved, C_l moves 4e-7.)
SOLVER_REVISION = 5
