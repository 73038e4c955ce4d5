"""Biorthogonal polynomials for the Cauchy kernel pairing.

Given two positive measures da, db on the positive half-line, the library
constructs and verifies the complete apparatus of the biorthogonal
families attached to the pairing

    <f | g> = integral integral f(x) g(y) / (x + y)  da(x) db(y):

bimoment matrices and their total positivity, the biorthogonal families
with norms and averages, the Hessenberg multiplication operators and their
banded factorizations, four-term recurrences, zero location and
interlacing, Christoffel-Darboux identities (plain, hatted and extended),
Markov functions of the two associated Nikishin chains with their
simultaneous rational approximation problems, perfect duality, and the
3x3 boundary-value (Riemann-Hilbert) matrices.

Discrete measures with rational data run through exact rational
arithmetic end to end -- every identity is asserted as literal equality.
Density measures on a compact interval are discretized by Gauss-Legendre
quadrature and run in floats.
"""

__version__ = "0.1.0"

from .bimoment import (BimomentMatrix, bareiss_det, check_total_positivity,
                       compute_bimoments, oracle_dn, rank_one_shift_residual)
from .bop import PolynomialFamily, averages, build_family, evaluate, pair
from .bundle import Apparatus, build_apparatus
from .cdkernel import (cd_residual_hat, cd_residual_plain, commutator_block,
                       verify_block_against_dense)
from .errors import (CauchybopError, DegenerateMatrixError,
                     InvalidDensityError, OrderUnderflowError,
                     PoleEvaluationError, PrecisionExhaustedError,
                     TheoryViolationError)
from .measure import (Atom, DensityMeasure, DiscreteMeasure, discretize,
                      measure_from_strings)
from .nikishin import (aux_vectors, duality_check, ecd_hat_residual,
                       ecd_residual, markov, order_check, pade_solve,
                       plucker_residual, polynomial_part)
from .recurrence import (BandOperator, HattedFamily, OscillationCertificate,
                         build_A_Ahat, build_hatted, build_L_Lhat, build_XY,
                         four_term_residual, rank_one_XY_residual,
                         tn_oscillatory_certificate)
from .rhp import (RHMatrix, assemble_gamma, assemble_gamma_hat,
                  asymptotic_check, extract_constants, jump_residual,
                  jump_slope_study)
from .series import PowerTail
from .transforms import (MARKOV_TAGS, AuxVectors, MarkovFunction,
                         OrderCertificate, PadeSolution, f_hat_matrix,
                         f_matrix)
from .zeros import ZeroReport, charpoly_identity_residual, zeros_of
