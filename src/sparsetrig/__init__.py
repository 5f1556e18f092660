"""Sparse trigonometric spectra, constructive approximants, and
finite-stage representation engines on the discretized circle."""

from .circle import (CircleGrid, SampledFunction, triangle_function,
                     triangle_coeff)
from .trigpoly import (TrigPoly, partial_sum, partial_sum_rect, s_star,
                       s_star_star, contract, translate, multiply,
                       special_product, coeff_norms, follows)
from .blocks import (SpectrumSet, block_B1, block_B1_plus,
                     block_B2, block_B, block_B_nu, block_D, block_D_nu,
                     linearize, build_hadamard_spectrum, build_squares_spectrum,
                     build_analytic_hadamard_spectrum,
                     build_analytic_squares_spectrum)
from .approximants import (ApproximantReport, CertificateError,
                           ConstructionInfeasible, analytic_unit,
                           korner_polynomial, analytic_korner,
                           block_approximant, analytic_block_approximant)
from .riesz import (RieszSchedule, make_schedule, cosine_product_bounds,
                    analytic_product_diagnostics, almost_orthogonality,
                    clt_check)
from .numbertheory import (legendre, find_nonresidue_run,
                           squares_gap_certificate, GapCertificate)
from .engines import (RepresentationRun, run_ae_engine, run_squares_engine,
                      run_asymptotic_l2_engine, run_infinity_mode,
                      run_stoptime_engine, run_measure_engine)

__version__ = "0.1.0"
