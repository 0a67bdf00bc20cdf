"""Second fundamental form of the affinized VMRT, kernels, infinity locus.

The form is evaluated on root vectors by the double bracket
[E_{nu-gamma}, [E_{nu'-gamma}, E_gamma]] and reduced modulo the affinized
tangent space and the parabolic: the value survives exactly when
nu + nu' - gamma is a noncompact positive root outside Psi_gamma u {gamma}.
Radial arguments short-circuit to zero (the cone annihilates its ruling).

That weight rule alone decides the sigma/tau kernels, so degeneracy
verdicts are independent of the Chevalley sign convention and build no
Lie elements.  A surviving value is read in closed form from two memoized
structure constants, N_{nu'-gamma,gamma} N_{nu-gamma,nu'}.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from . import hss
from .chevalley import ChevalleyTable
from .pairs import DeletionPair
from .report import FAIL, PASS, SKIPPED, CheckReport, root_witness
from .rootsys import MarkedDiagram, Root, RootSystem


class _Radial:
    """Sentinel for the radial (cone) direction of an affinized tangent space."""

    def __repr__(self) -> str:
        return "RADIAL"


RADIAL = _Radial()


@dataclass(frozen=True)
class SFFContext:
    """Weight data of an ambient VMRT and (optionally) an embedded sub-VMRT."""

    rs: RootSystem
    gamma: Root
    noncompact: frozenset[Root]
    psi: frozenset[Root]                       # Psi_gamma, radial excluded
    sub_tangent: "frozenset[Root] | None"      # gamma + Gamma + kappa weights
    x0_tangent: "frozenset[Root] | None"       # Phi image of the sub noncompact roots

    @staticmethod
    def for_ambient(md: MarkedDiagram) -> "SFFContext":
        """Ambient-only context: enough for sff_value, not for kernels."""
        rs = md.root_system()
        return SFFContext(rs, rs.simple_root(md.single_mark),
                          hss.noncompact_positive_roots(md), hss.psi_gamma(md),
                          None, None)

    @staticmethod
    def for_pair(pair: DeletionPair) -> "SFFContext":
        base = SFFContext.for_ambient(pair.ambient)
        corr = pair.correspondence
        srs = pair.sub_rs()
        gamma0 = srs.simple_root(pair.gamma0)
        amb = pair.ambient.diagram
        sub_tangent = set()
        for mu0 in hss.psi_gamma(pair.sub):
            kappa0 = mu0 - gamma0           # compact sub root, nonzero
            coeffs = [0] * amb.rank
            for label, c in zip(pair.sub.diagram.nodes, kappa0.coeffs):
                coeffs[amb.index[label]] = c
            sub_tangent.add(base.gamma + pair.big_gamma + Root(tuple(coeffs)))
        bad = sub_tangent - base.psi
        if bad:
            raise AssertionError(f"sub-VMRT tangent leaves Psi_gamma: {sorted(bad)[:3]}")
        return SFFContext(base.rs, base.gamma, base.noncompact, base.psi,
                          frozenset(sub_tangent), corr.noncompact_image)

    def require_pair(self) -> None:
        if self.sub_tangent is None or self.x0_tangent is None:
            raise ValueError("this operation needs a full deletion-pair context")


def _survives(weight: Root, ctx: SFFContext) -> bool:
    """Whether nu + nu' - gamma survives the reduction modulo P_alpha + p.

    It survives when it is a noncompact root outside Psi_gamma and is not
    gamma itself; otherwise the value of the form on (nu, nu') is zero.
    """
    return weight in ctx.noncompact and weight not in ctx.psi and weight != ctx.gamma


def sff_value(nu, nu2, ctx: SFFContext,
              table: ChevalleyTable) -> "tuple[int, Root] | None":
    """Second fundamental form on a pair of tangent weights.

    Returns (coefficient, weight) for a nonzero value, None for zero.  The
    coefficient is that of [E_{nu-gamma}, [E_{nu'-gamma}, E_gamma]], namely
    N_{nu'-gamma,gamma} N_{nu-gamma,nu'}.
    """
    if nu is RADIAL or nu2 is RADIAL:
        if nu is not RADIAL and nu not in ctx.psi:
            raise ValueError(f"{nu} is not a tangent weight")
        if nu2 is not RADIAL and nu2 not in ctx.psi:
            raise ValueError(f"{nu2} is not a tangent weight")
        return None
    if nu not in ctx.psi or nu2 not in ctx.psi:
        raise ValueError(f"arguments must lie in Psi_gamma: {nu}, {nu2}")
    gamma = ctx.gamma
    weight = nu + nu2 - gamma
    if not _survives(weight, ctx):
        return None
    coeff = table.constant(nu2 - gamma, gamma) * table.constant(nu - gamma, nu2)
    return (coeff, weight)


@dataclass(frozen=True)
class KernelReport:
    """Kernel of the (quotiented) form against the sub-VMRT tangent space."""

    mode: str                        # "sigma" or "tau"
    kernel_weights: frozenset[Root]  # non-radial kernel directions
    strict: bool
    witnesses: tuple[Root, ...]


def _kernel(ctx: SFFContext, mode: str) -> KernelReport:
    ctx.require_pair()
    # nu leaves the kernel when some shift nu' - gamma moves it onto a live
    # weight w (one that passes _survives and the tau quotient), i.e. when
    # nu = w - (nu' - gamma); there are far fewer live weights than nu
    live = ctx.noncompact - ctx.psi - {ctx.gamma}
    if mode == "tau":
        live -= ctx.x0_tangent
    gamma = ctx.gamma.coeffs
    shifts = [tuple(map(operator.sub, nu2.coeffs, gamma)) for nu2 in ctx.sub_tangent]
    hit = {tuple(map(operator.sub, w.coeffs, s)) for w in live for s in shifts}
    kernel = {nu for nu in ctx.psi if nu.coeffs not in hit}
    if mode == "sigma":
        strict = bool(kernel)
    else:
        strict = ctx.sub_tangent <= kernel and kernel != ctx.sub_tangent
    return KernelReport(mode, frozenset(kernel), strict,
                        tuple(sorted(kernel)))


def kernel_sigma(ctx: SFFContext) -> KernelReport:
    """Weights killed by sigma against the whole sub-VMRT tangent space.

    Weight-injectivity of nu -> nu + nu' - gamma for fixed nu' makes the
    reported kernel exact: it is spanned by the listed root directions.
    """
    return _kernel(ctx, "sigma")


def kernel_tau(ctx: SFFContext) -> KernelReport:
    """Same kernel for the quotient by P_alpha + T_0(X_0) (D_0 = T_0(X))."""
    return _kernel(ctx, "tau")


# ---------------------------------------------------------------------------
# Infinity locus (weight-level identity behind the locus-of-infinity lemma)
# ---------------------------------------------------------------------------

def verify_infinity_locus(pair: DeletionPair) -> CheckReport:
    """Check the four exact weight-set identities of the infinity-locus lemma.

    (a) noncompact sub roots pairing 1 with gamma0 decompose as
        gamma0 + theta + Sigma and their Phi images are fixed by s_{gamma0};
    (b) those pairing 0 decompose as gamma0 + 2 theta + Sigma, their images
        drop by gamma0 under s_{gamma0} and then pair 1 with gamma;
    (c) s_{gamma0}(gamma) = gamma + gamma0;
    (d) s_{gamma0}(Phi(noncompact sub roots)) = {noncompact ambient roots
        pairing 1 with gamma}.

    Skipped when the ambient is of type A or C (lemma hypothesis).
    """
    subject = pair.pair_id
    check_id = "sff.infinity_locus"
    letters = {c.letter for c in pair.ambient.diagram.components}
    if letters & {"A", "C"}:
        return CheckReport(check_id, subject, SKIPPED,
                           notes="ambient of type A or C: lemma hypothesis not met")
    ars = pair.ambient_rs()
    srs = pair.sub_rs()
    corr = pair.correspondence
    gamma = ars.simple_root(pair.gamma)
    gamma0_sub = srs.simple_root(pair.gamma0)
    gamma0_amb = ars.simple_root(pair.gamma0)
    sub_diag = pair.sub.diagram
    theta_idx = {sub_diag.index[n] for n in sub_diag.neighbors(pair.gamma0)}
    gamma0_idx = sub_diag.index[pair.gamma0]

    failures: list[dict] = []

    def shape(beta: Root, expected_theta_total: int) -> bool:
        """beta = gamma0 + k*theta + Sigma with the stated neighbor total."""
        if beta.coeffs[gamma0_idx] != 1:
            return False
        return sum(beta.coeffs[i] for i in theta_idx) == expected_theta_total

    nc0 = hss.noncompact_positive_roots(pair.sub)
    for beta in sorted(nc0):
        pr = srs.pairing(beta, gamma0_sub)
        image = corr.apply(beta)
        reflected = ars.reflect(pair.gamma0, image)
        if beta == gamma0_sub:
            continue       # handled by check (c)
        if pr == 1:
            if not shape(beta, 1):
                failures.append({"check": "a-shape", "beta": root_witness(beta)})
            if reflected != image:
                failures.append({"check": "a-fixed", "beta": root_witness(beta)})
        elif pr == 0:
            if not shape(beta, 2):
                failures.append({"check": "b-shape", "beta": root_witness(beta)})
            if reflected != image - gamma0_amb:
                failures.append({"check": "b-drop", "beta": root_witness(beta)})
            if ars.pairing(gamma, reflected) != 1:
                failures.append({"check": "b-pairing", "beta": root_witness(beta)})
        else:
            failures.append({"check": "pairing-range", "beta": root_witness(beta),
                             "pairing": str(pr)})
    if ars.reflect(pair.gamma0, gamma) != gamma + gamma0_amb:
        failures.append({"check": "c"})

    lhs = frozenset(ars.reflect(pair.gamma0, corr.apply(b)) for b in nc0)
    nc = hss.noncompact_positive_roots(pair.ambient)
    rhs = frozenset(b for b in nc if ars.pairing(b, gamma) == 1)
    if lhs != rhs:
        failures.append({
            "check": "d",
            "lhs_only": [root_witness(r) for r in sorted(lhs - rhs)],
            "rhs_only": [root_witness(r) for r in sorted(rhs - lhs)],
        })

    if failures:
        return CheckReport(check_id, subject, FAIL, witnesses=failures)
    return CheckReport(check_id, subject, PASS,
                       witnesses=[{"locus_size": len(rhs)}])
