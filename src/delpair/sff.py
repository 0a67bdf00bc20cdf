"""Second fundamental form of the affinized VMRT, kernels, infinity locus.

The form is evaluated on root vectors by the double bracket
[E_{nu-gamma}, [E_{nu'-gamma}, E_gamma]] and reduced modulo the affinized
tangent space and the parabolic: the value survives exactly when
nu + nu' - gamma is a noncompact positive root outside Psi_gamma u {gamma}.

That weight rule alone decides the sigma/tau kernels, so degeneracy
verdicts are independent of the Chevalley sign convention and build no
Lie elements.  The sub-VMRT tangent weights are Phi(Psi_gamma0(X0)), read
through the pair's root correspondence.  The bracket evaluation stays as a
test oracle.

Weights are root tuples (see ``rootsys``): a kernel is a set difference of
tuple sets, the lemma's sums and differences go through ``rootsys.add`` and
``rootsys.sub``, and a witness is the tuple as a list.
"""
from __future__ import annotations

import operator

from . import hss
from .frozen import Frozen
from .pairs import DeletionPair
from .report import FAIL, PASS, SKIPPED, CheckReport
from .rootsys import add, sub


class SFFContext(Frozen, fields=("rs", "gamma", "noncompact", "psi", "sub_tangent",
                                 "x0_tangent")):
    """Weight data of an ambient VMRT and the sub-VMRT of a deletion pair.

    Besides the ambient root system, the simple root gamma and the noncompact
    roots, the weight sets are ``psi``, Psi_gamma with the radial weight
    excluded, ``sub_tangent``, Phi(Psi_gamma0(X0)), and ``x0_tangent``, the
    Phi image of the sub noncompact roots.
    """

    @staticmethod
    def for_pair(pair: DeletionPair) -> "SFFContext":
        rs = pair.ambient_rs()
        psi = hss.psi_gamma(pair.ambient)
        corr = pair.correspondence
        sub_tangent = frozenset(map(corr.on_noncompact.__getitem__, hss.psi_gamma(pair.sub)))
        bad = sub_tangent - psi
        if bad:
            raise AssertionError(f"sub-VMRT tangent leaves Psi_gamma: {sorted(bad)[:3]}")
        return SFFContext(rs, rs.simple_root(pair.gamma),
                          hss.noncompact_positive_roots(pair.ambient), psi,
                          sub_tangent, corr.noncompact_image)


class KernelReport(Frozen, fields=("kernel_weights", "strict")):
    """Kernel of the (quotiented) form against the sub-VMRT tangent space:
    its non-radial directions, as weights, and whether it is strict."""


def kernels(ctx: SFFContext) -> tuple[KernelReport, KernelReport]:
    """The sigma and tau kernels against the whole sub-VMRT tangent space.

    sigma is the form itself; tau is its quotient by P_alpha + T_0(X_0)
    (D_0 = T_0(X)), so tau's live weights are sigma's minus
    Phi(noncompact sub roots).  Weight-injectivity of nu -> nu + nu' - gamma
    for fixed nu' makes each reported kernel exact: it is spanned by the
    listed root directions.
    """
    # nu leaves a kernel when some shift nu' - gamma moves it onto a live
    # weight w (where the form survives: a noncompact root outside Psi_gamma
    # and not gamma), i.e. when nu = w - (nu' - gamma); there are far fewer
    # live weights than nu
    shifts = [tuple(map(operator.sub, nu2, ctx.gamma)) for nu2 in ctx.sub_tangent]
    hit_sigma: set[tuple[int, ...]] = set()
    hit_tau: set[tuple[int, ...]] = set()
    for w in ctx.noncompact - ctx.psi - {ctx.gamma}:
        hit = {tuple(map(operator.sub, w, s)) for s in shifts}
        hit_sigma |= hit
        if w not in ctx.x0_tangent:
            hit_tau |= hit
    sigma = ctx.psi - hit_sigma
    tau = ctx.psi - hit_tau
    return (KernelReport(sigma, bool(sigma)),
            KernelReport(tau, ctx.sub_tangent <= tau and tau != ctx.sub_tangent))


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

    def shape(beta: tuple[int, ...], expected_theta_total: int) -> bool:
        """beta = gamma0 + k*theta + Sigma with the stated neighbor total."""
        if beta[gamma0_idx] != 1:
            return False
        return sum(beta[i] for i in theta_idx) == expected_theta_total

    nc0 = hss.noncompact_positive_roots(pair.sub)
    for beta in sorted(nc0):
        pr = srs.pairing(beta, gamma0_sub)
        image = corr.on_noncompact[beta]
        reflected = ars.reflect(pair.gamma0, image)
        if beta == gamma0_sub:
            continue       # handled by check (c)
        if pr == 1:
            if not shape(beta, 1):
                failures.append({"check": "a-shape", "beta": list(beta)})
            if reflected != image:
                failures.append({"check": "a-fixed", "beta": list(beta)})
        elif pr == 0:
            if not shape(beta, 2):
                failures.append({"check": "b-shape", "beta": list(beta)})
            if reflected != sub(image, gamma0_amb):
                failures.append({"check": "b-drop", "beta": list(beta)})
            if ars.pairing(gamma, reflected) != 1:
                failures.append({"check": "b-pairing", "beta": list(beta)})
        else:
            failures.append({"check": "pairing-range", "beta": list(beta),
                             "pairing": str(pr)})
    if ars.reflect(pair.gamma0, gamma) != add(gamma, gamma0_amb):
        failures.append({"check": "c"})

    lhs = frozenset(ars.reflect(pair.gamma0, image) for image in corr.noncompact_image)
    nc = hss.noncompact_positive_roots(pair.ambient)
    rhs = frozenset(b for b in nc if ars.pairing(b, gamma) == 1)
    if lhs != rhs:
        failures.append({
            "check": "d",
            "lhs_only": [list(r) for r in sorted(lhs - rhs)],
            "rhs_only": [list(r) for r in sorted(rhs - lhs)],
        })

    if failures:
        return CheckReport(check_id, subject, FAIL, witnesses=failures)
    return CheckReport(check_id, subject, PASS,
                       witnesses=[{"locus_size": len(rhs)}])
