"""Endoscopic transfer factors on real Lie algebras and numerical
verification that endoscopic transfer commutes with the Fourier transform
of orbital integrals on the elliptic locus."""

from .cohomology import (
    CohomologyClass,
    DualComponentCharacter,
    RealTorus,
    TorusPoint,
    cocycle_class,
    elliptic_torus,
    h1,
    kappa_from_s,
    quotient_torus_lattice,
    tate_nakayama_pair,
)
from .distributions import (
    EllipticScenario,
    IdentityReport,
    KernelValue,
    d_gh,
    d_tilde_gh,
    make_scenario,
    rossmann_kernel,
    verify_identity,
)
from .endoscopy import (
    ADatum,
    Diagram,
    EllipticElement,
    EndoscopicDatum,
    TransferFactorEngine,
    build_diagram,
    build_endoscopic_datum,
)
from .realform import (
    DimensionProfile,
    EighthRoot,
    RealFormGrading,
    build_grading,
    dimension_profile,
    gamma_psi,
    prefactor,
    real_weyl_group,
    weil_constant,
)
from .rootdata import (
    RootDatum,
    WeylElement,
    build_root_datum,
    enumerate_weyl,
    weyl_sign,
)
from .scenario import Scenario, build_scenario, load_builtin, load_scenario_file, parse_scenario
from .verify import RunReport, emit_report, parse_machine_report, run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
