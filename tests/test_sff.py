from types import SimpleNamespace

import pytest

from delpair.chevalley import build_table
from delpair.hss import noncompact_positive_roots
from delpair.pairs import DeletionPair
from delpair.rootsys import parse_marked
from delpair.sff import SFFContext, kernels, verify_infinity_locus
from oracles import (
    bracket_sff_value,
    brute_kernel,
    form_pairing,
    label_embedded_sub_tangent,
    minus,
    plus,
    tuple_kernels,
)


def ctx_for(catalog7, pid):
    return SFFContext.for_pair(catalog7[pid])


def test_context_invariants(catalog7):
    for pair in catalog7.values():
        ctx = SFFContext.for_pair(pair)
        assert ctx.sub_tangent <= ctx.psi
        # |sub tangent| = dim VMRT(X0), the radial line left out
        from delpair.hss import vmrt_diagram
        assert len(ctx.sub_tangent) == len(noncompact_positive_roots(vmrt_diagram(pair.sub)))


def test_sub_tangent_matches_label_embedding_oracle(catalog20):
    assert len(catalog20) == 346
    for pair in catalog20:
        ctx = SFFContext.for_pair(pair)
        assert ctx.sub_tangent == label_embedded_sub_tangent(pair), pair


def test_vanishing_for_adjacent_weight(catalog7):
    # nu = gamma + beta with beta adjacent to gamma kills the whole sub-tangent:
    # beta + gamma + Gamma + kappa is never a root
    pair = catalog7["E7:a7/a6"]
    ctx = SFFContext.for_pair(pair)
    ars = pair.ambient_rs()
    nu = plus(ars.simple_root("a7"), ars.simple_root("a6"))
    assert nu in ctx.psi
    for nu2 in ctx.sub_tangent:
        assert not ars.is_root(minus(plus(nu, nu2), ctx.gamma))
    assert nu in kernels(ctx)[0].kernel_weights


def test_zero_nonzero_pattern_symmetric_and_injective(catalog7):
    for pid in ("D5:a5/a3", "E6:a6/a5", "B4:a1/a2"):
        ctx = ctx_for(catalog7, pid)
        table = build_table(catalog7[pid].ambient_rs())
        psi = sorted(ctx.psi)
        for nu2 in psi:
            images = [minus(plus(nu, nu2), ctx.gamma) for nu in psi]
            assert len(set(images)) == len(images)
        for nu in psi:
            for nu2 in psi:
                a = bracket_sff_value(nu, nu2, ctx, table)
                b = bracket_sff_value(nu2, nu, ctx, table)
                assert (a is None) == (b is None)


def test_kernels_match_bracket_oracle_rank12(catalog12):
    assert len(catalog12) == 114
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        table = build_table(pair.ambient_rs())

        def bracket_kernel(quotient):
            return frozenset(nu for nu in ctx.psi if all(
                value is None or value[1] in quotient
                for value in (bracket_sff_value(nu, nu2, ctx, table)
                              for nu2 in ctx.sub_tangent)))

        sigma, tau = kernels(ctx)
        assert sigma.kernel_weights == bracket_kernel(frozenset())
        assert tau.kernel_weights == bracket_kernel(ctx.x0_tangent)


def test_kernel_sigma_matches_brute_oracle(catalog12):
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        report = kernels(ctx)[0]
        oracle = brute_kernel(ctx.psi, ctx.sub_tangent, ctx.gamma,
                              ctx.noncompact, pair.ambient_rs())
        assert report.kernel_weights == oracle, pair


def test_kernel_tau_matches_brute_oracle(catalog12):
    for pair in catalog12:
        ctx = SFFContext.for_pair(pair)
        report = kernels(ctx)[1]
        oracle = brute_kernel(ctx.psi, ctx.sub_tangent, ctx.gamma,
                              ctx.noncompact, pair.ambient_rs(), quotient=ctx.x0_tangent)
        assert report.kernel_weights == oracle, pair


def test_packed_kernels_match_tuple_kernels_on_catalog20(catalog20):
    for pair in catalog20:
        ctx = SFFContext.for_pair(pair)
        sigma, tau = kernels(ctx)
        assert (sigma.kernel_weights, tau.kernel_weights) == tuple_kernels(ctx), pair.pair_id


def test_degeneracy_for_all_catalog_pairs(catalog7):
    for pair in catalog7.values():
        ctx = SFFContext.for_pair(pair)
        sigma, tau = kernels(ctx)
        assert sigma.strict
        ars = pair.ambient_rs()
        gamma = ars.simple_root(pair.gamma)
        for nb in pair.ambient.diagram.neighbors(pair.gamma):
            assert plus(gamma, ars.simple_root(nb)) in sigma.kernel_weights
        assert sigma.kernel_weights <= tau.kernel_weights
        assert ctx.sub_tangent <= tau.kernel_weights
        assert tau.strict


def test_d5_kernel_weight_list_frozen(catalog7):
    # brute-force enumeration over all of Psi_gamma(D5, a5)
    ctx = ctx_for(catalog7, "D5:a5/a3")
    report = kernels(ctx)[0]
    ars = catalog7["D5:a5/a3"].ambient_rs()
    expected = {plus(ars.simple_root("a5"), ars.simple_root("a3"))}
    assert report.kernel_weights == expected


# -- infinity locus -----------------------------------------------------------

def test_infinity_locus_maximal_pairs(maximal_triple):
    sizes = []
    for pair in maximal_triple:
        report = verify_infinity_locus(pair)
        assert report.status == "pass"
        sizes.append(report.witnesses[0]["locus_size"])
    assert sizes == [6, 10, 16]


def test_infinity_locus_quadric_pairs(catalog7):
    for pid in ("B4:a1/a2", "D5:a1/a2"):
        assert verify_infinity_locus(catalog7[pid]).status == "pass"


def test_infinity_locus_fails_identity_d_on_a_dropped_image():
    # a negative control for (d): with one Phi image dropped from the cached
    # image set of a fresh pair, the reflected set loses exactly its
    # reflection, and (a)-(c), which do not read that set, still hold
    pair = DeletionPair(parse_marked("D6:a6"), "a4")
    corr = pair.correspondence
    dropped = min(corr.noncompact_image)
    corr.__dict__["noncompact_image"] = corr.noncompact_image - {dropped}
    report = verify_infinity_locus(pair)
    assert report.status == "fail"
    reflected = pair.ambient_rs().reflect(pair.gamma0, dropped)
    assert report.witnesses == [{"check": "d", "lhs_only": [],
                                 "rhs_only": [list(reflected)]}]


def test_infinity_locus_skips_type_a_ambient():
    pair = DeletionPair(parse_marked("A4:a4"), "a3")
    report = verify_infinity_locus(pair)
    assert report.status == "skipped"
    assert "type A" in report.notes


def test_infinity_locus_identity_both_sides_oracle(catalog7):
    # recompute both sides of identity (d) independently of the operation
    from delpair.pairs import root_correspondence
    pair = catalog7["E7:a7/a6"]
    ars = pair.ambient_rs()
    corr = root_correspondence(pair)
    nc0 = noncompact_positive_roots(pair.sub)
    lhs = {ars.reflect("a6", corr.apply(b)) for b in nc0}
    gamma = ars.simple_root("a7")
    rhs = {b for b in noncompact_positive_roots(pair.ambient)
           if form_pairing(ars, b, gamma) == 1}
    assert lhs == rhs
    assert len(lhs) == 16


# -- negative controls: each row of the infinity locus seen to fail ------------
#
# In D5:a5/a3 the sub-diagram is A4:a3, gamma0 = a3, and its noncompact roots
# other than gamma0 pair 1 with gamma0 ((0,0,1,1), (0,1,1,0), (1,1,1,0), the
# sub-VMRT tangent weights) or 0 ((0,1,1,1), (1,1,1,1)).

PAIRS_1 = (0, 0, 1, 1)
PAIRS_0 = (0, 1, 1, 1)


def d5_pair():
    """A fresh D5:a5/a3, so its cached correspondence can be altered."""
    return DeletionPair(parse_marked("D5:a5"), "a3")


def swapped_images(pair, a, b):
    """Swap Phi(a) and Phi(b) in the pair's cached noncompact images."""
    corr = pair.correspondence
    images = dict(corr.on_noncompact)
    images[a], images[b] = images[b], images[a]
    corr.__dict__["on_noncompact"] = images
    return pair


def lying_sub_pairing(pair, beta, value):
    """Make the pair's sub root system report <beta, gamma0> = value."""
    srs = pair.sub_rs()

    def pairing_simple(b, i):
        return value if b == beta else srs.pairing_simple(b, i)
    pair.__dict__["sub_rs"] = lambda: SimpleNamespace(simple_root=srs.simple_root,
                                                      pairing_simple=pairing_simple)
    return pair


def failed_rows(report):
    assert report.status == "fail"
    return [(w["check"], w.get("beta")) for w in report.witnesses]


def test_infinity_locus_fails_b_drop_b_pairing_and_c_off_its_hypothesis():
    # B4:a1/a3 is not maximal, so run-all skips it; its chain a1, a2, a3 puts
    # gamma two bonds from gamma0, so s_{gamma0} fixes gamma (c), and the sub
    # root a3 + 2 a4 of B2:a3, pairing 0 with a3, keeps its image (b-drop),
    # which then pairs 0 with gamma (b-pairing)
    report = verify_infinity_locus(DeletionPair(parse_marked("B4:a1"), "a3"))
    assert failed_rows(report) == [("b-drop", [1, 2]), ("b-pairing", [1, 2]),
                                   ("c", None), ("d", None)]


def test_infinity_locus_fails_a_fixed_on_swapped_images():
    # Phi(0,0,1,1) and Phi(0,1,1,1) swapped: the first root's image is no
    # longer fixed by s_{gamma0}, and the second's no longer drops by gamma0
    report = verify_infinity_locus(swapped_images(d5_pair(), PAIRS_1, PAIRS_0))
    assert failed_rows(report) == [("a-fixed", [0, 0, 1, 1]), ("b-drop", [0, 1, 1, 1])]


def test_infinity_locus_fails_a_shape_on_a_root_said_to_pair_1():
    # (0,1,1,1) has two neighbors of gamma0, not one, and its image drops
    report = verify_infinity_locus(lying_sub_pairing(d5_pair(), PAIRS_0, 1))
    assert failed_rows(report) == [("a-shape", [0, 1, 1, 1]), ("a-fixed", [0, 1, 1, 1])]


def test_infinity_locus_fails_b_shape_on_a_root_said_to_pair_0():
    # (0,0,1,1) has one neighbor of gamma0, not two, and its image is fixed
    report = verify_infinity_locus(lying_sub_pairing(d5_pair(), PAIRS_1, 0))
    assert failed_rows(report) == [("b-shape", [0, 0, 1, 1]), ("b-drop", [0, 0, 1, 1])]


def test_infinity_locus_fails_pairing_range_on_a_pairing_of_minus_1():
    report = verify_infinity_locus(lying_sub_pairing(d5_pair(), PAIRS_1, -1))
    assert report.witnesses == [{"check": "pairing-range", "beta": [0, 0, 1, 1],
                                 "pairing": "-1"}]


def test_sff_context_refuses_a_sub_tangent_outside_psi_gamma():
    # (0,0,1,1) is a sub-VMRT tangent weight and (0,1,1,1) is not; with their
    # images swapped, the sub tangent holds an image outside Psi_gamma
    with pytest.raises(AssertionError, match="^sub-VMRT tangent leaves Psi_gamma"):
        SFFContext.for_pair(swapped_images(d5_pair(), PAIRS_1, PAIRS_0))
