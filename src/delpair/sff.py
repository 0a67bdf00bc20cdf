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

Weights are root tuples (see ``rootsys``), packed for the kernel search: a
kernel is the set of Psi_gamma weights whose packings no shift reaches, the
lemma's sums and differences go through ``rootsys.add`` and ``rootsys.sub``,
and a witness is the tuple as a list.
"""
from __future__ import annotations

from . import hss
from .frozen import Frozen
from .pairs import DeletionPair
from .report import FAIL, PASS, SKIPPED, CheckReport
from .rootsys import add, packed_roots, sub


class SFFContext(Frozen, fields=("gamma", "noncompact", "psi", "sub_tangent", "x0_tangent")):
    """Weight data of an ambient VMRT and the sub-VMRT of a deletion pair.

    Besides the simple root gamma and the ambient noncompact roots, the
    weight sets are ``psi``, Psi_gamma with the radial weight excluded,
    ``sub_tangent``, Phi(Psi_gamma0(X0)), and ``x0_tangent``, the Phi image
    of the sub noncompact roots.
    """

    @staticmethod
    def for_pair(pair: DeletionPair) -> "SFFContext":
        psi = hss.psi_gamma(pair.ambient)
        corr = pair.correspondence
        sub_tangent = frozenset(map(corr.on_noncompact.__getitem__, hss.psi_gamma(pair.sub)))
        bad = sub_tangent - psi
        if bad:
            raise AssertionError(f"sub-VMRT tangent leaves Psi_gamma: {sorted(bad)[:3]}")
        return SFFContext(pair.ambient_rs().simple_root(pair.gamma),
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
    The search runs on weights packed once per ambient shape, so a shifted
    weight is one int subtraction; the search on tuples is the test oracle.
    """
    # nu leaves a kernel when some shift nu' - gamma moves it onto a live
    # weight w (where the form survives: a noncompact root outside Psi_gamma
    # and not gamma), i.e. when nu = w - (nu' - gamma).  The packing is affine
    # and no coefficient of w - (nu' - gamma) leaves -14..14, so a packed
    # difference is the packing of the tuple's
    packed = packed_roots(ctx.noncompact)
    shifts = [packed[nu2] - packed[ctx.gamma] for nu2 in ctx.sub_tangent]
    live = ctx.noncompact - ctx.psi - {ctx.gamma}
    hit_tau = {w - s for w in map(packed.__getitem__, live - ctx.x0_tangent) for s in shifts}
    hit_sigma = hit_tau | {w - s for w in map(packed.__getitem__, live & ctx.x0_tangent)
                           for s in shifts}
    psi = packed_roots(ctx.psi).items()
    sigma = frozenset(nu for nu, key in psi if key not in hit_sigma)
    tau = frozenset(nu for nu, key in psi if key not in hit_tau)
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

    failures: list[dict] = []

    def shape(beta: tuple[int, ...], expected_theta_total: int) -> bool:
        """beta = gamma0 + k*theta + Sigma with the stated neighbor total; every
        root of nc0 has coefficient 1 at gamma0, the sub's one mark."""
        return sum(beta[i] for i in theta_idx) == expected_theta_total

    # <beta, gamma0> and <b, gamma> are Cartan-row sums, and <gamma, r> = 1 is
    # the integer identity 2 B(gamma, r) = B(r, r)
    gamma0_idx = sub_diag.index[pair.gamma0]
    gamma_idx = ars.diagram.index[pair.gamma]
    nc0 = hss.noncompact_positive_roots(pair.sub)
    for beta in sorted(nc0):
        pr = srs.pairing_simple(beta, gamma0_idx)
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
            if 2 * ars.inner(gamma, reflected) != ars.inner(reflected, reflected):
                failures.append({"check": "b-pairing", "beta": list(beta)})
        else:
            failures.append({"check": "pairing-range", "beta": list(beta),
                             "pairing": str(pr)})
    if ars.reflect(pair.gamma0, gamma) != add(gamma, gamma0_amb):
        failures.append({"check": "c"})

    lhs = frozenset(ars.reflect(pair.gamma0, image) for image in corr.noncompact_image)
    nc = hss.noncompact_positive_roots(pair.ambient)
    rhs = frozenset(b for b in nc if ars.pairing_simple(b, gamma_idx) == 1)
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
